package cypher

import (
	"slices"
	"sort"

	"github.com/graphrules/graphrules/internal/graph"
)

// This file implements cost-based ordering for MATCH clauses: whole pattern
// parts are executed smallest-anchor-first, and each part may be reversed so
// matching starts from its cheaper end. Estimates come from the graph the
// clause executes on, through the same seek chooser the matcher uses
// (sarg.go) plus label buckets and edge type counts, so the plan and the
// execution never disagree about what a seek would touch. Reordering changes only the order rows are produced in,
// never the result set: every candidate is still re-checked by the matcher,
// and relationship uniqueness is symmetric under part order and direction.

// matchPlan is the planned execution of one MATCH clause's pattern list.
type matchPlan struct {
	// parts in execution order; reversed entries are fresh copies, the
	// source AST is never mutated (it is shared via the plan cache).
	parts    []*PatternPart
	order    []int     // parts[i] was Patterns[order[i]]
	reversed []bool    // parts[i] runs right-to-left relative to the source
	est      []float64 // anchor cardinality estimate per planned part
	// reordered is true when any part moved or flipped relative to source
	// order, i.e. when row order may differ from the naive plan.
	reordered bool
}

// identityPlan plans the parts exactly as written.
func identityPlan(parts []*PatternPart) *matchPlan {
	p := &matchPlan{parts: parts}
	p.order = make([]int, len(parts))
	p.reversed = make([]bool, len(parts))
	p.est = make([]float64, len(parts))
	for i := range parts {
		p.order[i] = i
		p.est[i] = -1 // unestimated
	}
	return p
}

// planMatch orders the clause's pattern parts by estimated cost on g, the
// graph the clause executes on. bound holds the variable names already
// bound when the clause runs; accs holds the clause's bound index accesses
// (nil when pushdown is off), which sharpen anchor estimates exactly as
// they narrow the matcher's anchors. When any part's property expressions
// reference variables in ways the planner cannot prove safe under
// reordering, it falls back to the identity plan.
func (ex *Executor) planMatch(g *graph.Graph, parts []*PatternPart, bound map[string]bool, accs []access) *matchPlan {
	if ex.noReorder || len(parts) == 0 {
		return identityPlan(parts)
	}
	// Verify the source order is self-consistent forward; if a part refers
	// to variables no earlier part introduces, execution-order semantics are
	// load-bearing and reordering must not touch them.
	known := copyBound(bound)
	for _, part := range parts {
		if !orientationSafe(part, false, known) {
			return identityPlan(parts)
		}
		addIntroduced(part, known)
	}

	plan := &matchPlan{}
	known = copyBound(bound)
	parts = withClauseLabels(parts)
	remaining := make([]int, len(parts))
	for i := range parts {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		bestPos, bestRev := -1, false
		var bestCost float64
		for pos, idx := range remaining {
			part := parts[idx]
			if !orientationSafe(part, false, known) {
				continue // depends on a part not yet placed
			}
			// A part anchors on its bound endpoint, not rescans per row.
			last := known[part.Nodes[len(part.Nodes)-1].Var]
			rev := reversible(part) && orientationSafe(part, true, known) && !known[part.Nodes[0].Var]
			if !rev || !last {
				if cost := partCost(g, part, false, known, accs); bestPos == -1 || cost < bestCost {
					bestPos, bestRev, bestCost = pos, false, cost
				}
			}
			if rev {
				if rc := partCost(g, part, true, known, accs); bestPos == -1 || rc < bestCost {
					bestPos, bestRev, bestCost = pos, true, rc
				}
			}
		}
		if bestPos == -1 {
			// Unplaceable under current bindings (only possible with exotic
			// cross-part references); give up on reordering entirely.
			return identityPlan(parts)
		}
		idx := remaining[bestPos]
		part := parts[idx]
		if bestRev {
			part = reversePart(part)
		}
		plan.parts = append(plan.parts, part)
		plan.order = append(plan.order, idx)
		plan.reversed = append(plan.reversed, bestRev)
		plan.est = append(plan.est, estAnchor(g, part, known, accs))
		addIntroduced(part, known)
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}
	for i, idx := range plan.order {
		if idx != i || plan.reversed[i] {
			plan.reordered = true
			break
		}
	}
	return plan
}

// recordPlan publishes the chosen part order and estimates to the execution
// stats so Explain and the REPL profile command can show them.
func recordPlan(m *matcher, plan *matchPlan) {
	if m.exec == nil || len(plan.order) == 0 {
		return
	}
	m.exec.PartOrder = append([]int(nil), plan.order...)
	m.exec.PartEst = append([]float64(nil), plan.est...)
	m.exec.Reordered = plan.reordered
}

// estAnchor estimates how many candidate nodes anchoring the part
// enumerates, through the matcher's own anchor choice (bound variable,
// chooseNodeSeek, smallest label bucket, chooseEdgeSeek, full scan), so a
// selective part costs what it will actually scan.
func estAnchor(g *graph.Graph, part *PatternPart, bound map[string]bool, accs []access) float64 {
	np := part.Nodes[0]
	if np.Var != "" && bound[np.Var] {
		return 1
	}
	if s, ok := chooseNodeSeek(g, np, accs); ok && s.est >= 0 {
		return float64(s.est)
	}
	if len(np.Labels) > 0 {
		_, ns := smallestLabel(g, np.Labels)
		return float64(len(ns))
	}
	if s, ok := chooseEdgeSeek(g, part, accs); ok && s.est >= 0 {
		return float64(s.est)
	}
	return float64(g.NodeCount())
}

// partCost estimates the matching work of one part in the given orientation:
// anchor cardinality times per-hop fanout times target-label selectivity.
func partCost(g *graph.Graph, part *PatternPart, reversed bool, bound map[string]bool, accs []access) float64 {
	p := part
	if reversed {
		p = reversePart(part)
	}
	total := float64(g.NodeCount())
	if total < 1 {
		total = 1
	}
	cost := estAnchor(g, p, bound, accs)
	for i, rel := range p.Rels {
		fanout := relFanout(g, rel) / total
		if fanout < 0.01 {
			fanout = 0.01 // keep longer chains from rounding to free
		}
		sel := 1.0
		target := p.Nodes[i+1]
		if target.Var != "" && bound[target.Var] {
			sel = 1 / total
		} else if len(target.Labels) > 0 {
			_, ns := smallestLabel(g, target.Labels)
			sel = float64(len(ns)) / total
		}
		cost *= fanout * total * sel
	}
	return cost
}

// withClauseLabels copies the parts with every node variable carrying every
// label the clause gives it, so an anchor estimates and scans the smallest:
// a candidate without one cannot match the part that names it.
func withClauseLabels(parts []*PatternPart) []*PatternPart {
	labels := map[string][]string{}
	for _, part := range parts {
		for _, np := range part.Nodes {
			for _, l := range np.Labels {
				if np.Var != "" && !slices.Contains(labels[np.Var], l) {
					labels[np.Var] = append(labels[np.Var], l)
				}
			}
		}
	}
	out := append([]*PatternPart(nil), parts...)
	for i, part := range parts {
		for j, np := range part.Nodes {
			if ls := labels[np.Var]; len(ls) > len(np.Labels) {
				if out[i] == part {
					out[i] = &PatternPart{Nodes: slices.Clone(part.Nodes), Rels: part.Rels}
				}
				labeled := *np
				labeled.Labels = ls
				out[i].Nodes[j] = &labeled
			}
		}
	}
	return out
}

// smallestLabel returns the first of the labels with the fewest nodes, and
// those nodes: the label scan an anchor falls back to.
func smallestLabel(g *graph.Graph, labels []string) (string, []*graph.Node) {
	best, ns := labels[0], g.LabelNodes(labels[0])
	for _, l := range labels[1:] {
		if c := g.LabelNodes(l); len(c) < len(ns) {
			best, ns = l, c
		}
	}
	return best, ns
}

// relFanout estimates how many edges one expansion of rel examines across
// the whole graph (the union of its admissible types).
func relFanout(g *graph.Graph, rel *RelPattern) float64 {
	if len(rel.Types) == 0 {
		return float64(g.EdgeCount())
	}
	n := 0
	for _, t := range rel.Types {
		n += len(g.EdgesWithType(t))
	}
	return float64(n)
}

// reversible reports whether flipping the part end-for-end is semantically
// invisible. Variable-length relationships are excluded: their path variable
// binds the traversed edge IDs in order, which reversal would flip.
func reversible(part *PatternPart) bool {
	if len(part.Rels) == 0 {
		return false // nothing to gain
	}
	for _, r := range part.Rels {
		if r.IsVarLength() {
			return false
		}
	}
	return true
}

// reversePart returns a fresh copy of the part walked right-to-left, with
// every relationship direction flipped. Shared NodePattern/RelPattern
// internals (labels, props) are reused read-only.
func reversePart(part *PatternPart) *PatternPart {
	n := len(part.Nodes)
	rp := &PatternPart{
		Nodes: make([]*NodePattern, n),
		Rels:  make([]*RelPattern, len(part.Rels)),
	}
	for i, np := range part.Nodes {
		rp.Nodes[n-1-i] = np
	}
	for i, rel := range part.Rels {
		flipped := *rel
		switch rel.Direction {
		case DirOut:
			flipped.Direction = DirIn
		case DirIn:
			flipped.Direction = DirOut
		}
		rp.Rels[len(part.Rels)-1-i] = &flipped
	}
	return rp
}

// orientationSafe reports whether matching the part in the given orientation
// only ever evaluates property expressions whose variables are already
// bound: either before the clause, or earlier along the walk itself.
func orientationSafe(part *PatternPart, reversed bool, bound map[string]bool) bool {
	p := part
	if reversed {
		p = reversePart(part)
	}
	seen := copyBound(bound)
	check := func(props map[string]Expr) bool {
		for _, e := range props {
			for v := range exprVars(e) {
				if !seen[v] {
					return false
				}
			}
		}
		return true
	}
	for i, np := range p.Nodes {
		if !check(np.Props) {
			return false
		}
		if np.Var != "" {
			seen[np.Var] = true
		}
		if i < len(p.Rels) {
			rel := p.Rels[i]
			if !check(rel.Props) {
				return false
			}
			if rel.Var != "" {
				seen[rel.Var] = true
			}
		}
	}
	return true
}

// addIntroduced marks the part's variables as bound.
func addIntroduced(part *PatternPart, bound map[string]bool) {
	for _, np := range part.Nodes {
		if np.Var != "" {
			bound[np.Var] = true
		}
	}
	for _, rel := range part.Rels {
		if rel.Var != "" {
			bound[rel.Var] = true
		}
	}
}

func copyBound(bound map[string]bool) map[string]bool {
	out := make(map[string]bool, len(bound))
	for k, v := range bound {
		if v {
			out[k] = true
		}
	}
	return out
}

func sortedPropKeys(props map[string]Expr) []string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exprVars collects every variable name an expression references, including
// variables inside pattern predicates.
func exprVars(e Expr) map[string]bool {
	out := map[string]bool{}
	var walk func(Expr)
	walkPart := func(p *PatternPart) {
		for _, np := range p.Nodes {
			if np.Var != "" {
				out[np.Var] = true
			}
			for _, pe := range np.Props {
				walk(pe)
			}
		}
		for _, rel := range p.Rels {
			if rel.Var != "" {
				out[rel.Var] = true
			}
			for _, pe := range rel.Props {
				walk(pe)
			}
		}
	}
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
			return
		case *Variable:
			out[x.Name] = true
		case *PropAccess:
			walk(x.Target)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.E)
		case *Neg:
			walk(x.E)
		case *IsNull:
			walk(x.E)
		case *HasLabels:
			walk(x.E)
		case *FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ListLit:
			for _, el := range x.Elems {
				walk(el)
			}
		case *Index:
			walk(x.Target)
			walk(x.Sub)
		case *CaseExpr:
			walk(x.Operand)
			for i := range x.Whens {
				walk(x.Whens[i])
				walk(x.Thens[i])
			}
			walk(x.Else)
		case *PatternPred:
			walkPart(x.Pattern)
		}
	}
	walk(e)
	return out
}
