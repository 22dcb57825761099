package cypher

import (
	"sort"

	"github.com/graphrules/graphrules/internal/graph"
)

// This file implements cost-based ordering for MATCH clauses: whole pattern
// parts are executed smallest-anchor-first, and each part may be reversed so
// matching starts from its cheaper end. Estimates come from the same index
// stats the matcher scans (label buckets, label+property posting lists, edge
// type counts), so the plan and the execution never disagree about what a
// seek would touch. Reordering changes only the order rows are produced in,
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

// planMatch orders the clause's pattern parts by estimated cost. bound holds
// the variable names already bound when the clause runs; ranges holds the
// clause's seekable WHERE intervals (nil when range pushdown is off), which
// sharpen anchor estimates for range-selective parts. When any part's
// property expressions reference variables in ways the planner cannot prove
// safe under reordering, it falls back to the identity plan.
func (ex *Executor) planMatch(parts []*PatternPart, bound map[string]bool, ranges whereRanges) *matchPlan {
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
			cost := ex.partCost(part, false, known, ranges)
			if bestPos == -1 || cost < bestCost {
				bestPos, bestRev, bestCost = pos, false, cost
			}
			if reversible(part) && orientationSafe(part, true, known) {
				if rc := ex.partCost(part, true, known, ranges); rc < bestCost {
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
		plan.est = append(plan.est, ex.estAnchor(part, known, ranges))
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
// enumerates, mirroring the matcher's actual anchor choice (bound variable,
// equality or range index seek, edge-derived anchor, smallest label bucket,
// full scan). Range counts come from the same ordered postings the matcher
// seeks, so range-selective parts cost what they will actually scan.
func (ex *Executor) estAnchor(part *PatternPart, bound map[string]bool, ranges whereRanges) float64 {
	np := part.Nodes[0]
	if np.Var != "" && bound[np.Var] {
		return 1
	}
	if !ex.noPushdown && len(np.Labels) > 0 {
		best := -1
		for _, l := range np.Labels {
			for _, k := range sortedPropKeys(np.Props) {
				lit, ok := np.Props[k].(*Literal)
				if !ok {
					continue
				}
				n := len(ex.g.LabelPropNodes(l, k, lit.Value))
				if best == -1 || n < best {
					best = n
				}
			}
			if byKey := ranges.forVar(np.Var); len(byKey) > 0 {
				for _, k := range sortedRangeKeys(byKey) {
					r := byKey[k]
					if c := ex.g.LabelPropRangeCount(l, k, r.lo, r.hi); best == -1 || c < best {
						best = c
					}
				}
			}
		}
		if best >= 0 {
			return float64(best)
		}
	}
	if len(np.Labels) > 0 {
		best := -1
		for _, l := range np.Labels {
			if n := len(ex.g.LabelNodes(l)); best == -1 || n < best {
				best = n
			}
		}
		return float64(best)
	}
	if !ex.noPushdown {
		if est, ok := ex.estEdgeAnchor(part, ranges); ok {
			return est
		}
	}
	return float64(ex.g.NodeCount())
}

// estEdgeAnchor estimates the edge-derived anchor the matcher would take
// for an unlabeled, relationship-constrained part (see
// edgeAnchorCandidates); ok=false when that anchor would not engage.
func (ex *Executor) estEdgeAnchor(part *PatternPart, ranges whereRanges) (float64, bool) {
	if len(part.Rels) == 0 {
		return 0, false
	}
	rel := part.Rels[0]
	if rel.IsVarLength() || len(rel.Types) == 0 {
		return 0, false
	}
	eq := constRelProps(rel)
	rr := ranges.forVar(rel.Var)
	if len(eq) == 0 && len(rr) == 0 {
		return 0, false
	}
	eqKeys := make([]string, 0, len(eq))
	for k := range eq {
		eqKeys = append(eqKeys, k)
	}
	sort.Strings(eqKeys)
	total := 0
	for _, t := range rel.Types {
		best := -1
		for _, k := range eqKeys {
			b := graph.ValueBound(eq[k], true)
			if c := ex.g.TypePropRangeCount(t, k, b, b); best == -1 || c < best {
				best = c
			}
		}
		for _, k := range sortedRangeKeys(rr) {
			r := rr[k]
			if c := ex.g.TypePropRangeCount(t, k, r.lo, r.hi); best == -1 || c < best {
				best = c
			}
		}
		total += best
	}
	if rel.Direction == DirBoth {
		total *= 2
	}
	if n := ex.g.NodeCount(); total >= n {
		return 0, false
	}
	return float64(total), true
}

// partCost estimates the matching work of one part in the given orientation:
// anchor cardinality times per-hop fanout times target-label selectivity.
func (ex *Executor) partCost(part *PatternPart, reversed bool, bound map[string]bool, ranges whereRanges) float64 {
	p := part
	if reversed {
		p = reversePart(part)
	}
	total := float64(ex.g.NodeCount())
	if total < 1 {
		total = 1
	}
	cost := ex.estAnchor(p, bound, ranges)
	for i, rel := range p.Rels {
		fanout := ex.relFanout(rel) / total
		if fanout < 0.01 {
			fanout = 0.01 // keep longer chains from rounding to free
		}
		sel := 1.0
		target := p.Nodes[i+1]
		if target.Var != "" && bound[target.Var] {
			sel = 1 / total
		} else if len(target.Labels) > 0 {
			best := -1
			for _, l := range target.Labels {
				if n := len(ex.g.LabelNodes(l)); best == -1 || n < best {
					best = n
				}
			}
			sel = float64(best) / total
		}
		cost *= fanout * total * sel
	}
	return cost
}

// relFanout estimates how many edges one expansion of rel examines across
// the whole graph (the union of its admissible types).
func (ex *Executor) relFanout(rel *RelPattern) float64 {
	if len(rel.Types) == 0 {
		return float64(ex.g.EdgeCount())
	}
	n := 0
	for _, t := range rel.Types {
		n += len(ex.g.EdgesWithType(t))
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
