package cypher

import (
	"slices"
	"sort"

	"github.com/graphrules/graphrules/internal/graph"
)

// This file plans a MATCH clause's pattern parts by rule, once per cached
// query (resolve, slots.go): each part runs from whichever end its own
// clause anchors best, and the parts run best-anchored first. The plan
// reads the parsed clause alone — no graph statistics, parameter values or
// executor option — so Explain, execution and every test configuration
// run the same parts. Planning changes only the order rows are produced
// in, never the result set: every candidate is still re-checked by the
// matcher, and relationship uniqueness is symmetric under part order and
// direction.

// planParts orders the clause's parts given the variables bound before it.
// Each end of a part ranks by what anchors it (anchorRank); the first part
// in written order whose better end ranks lowest runs next, from that end,
// and a part is reversed only when its far end ranks strictly better, so
// ties keep the written order and orientation. When any part's property
// expressions reference variables in ways the planner cannot prove safe
// under reordering, the parts run as written.
func planParts(parts []*PatternPart, bound map[string]bool, sargs []Sarg) []*PatternPart {
	// Verify the source order is self-consistent forward; if a part refers
	// to variables no earlier part introduces, execution-order semantics are
	// load-bearing and reordering must not touch them.
	known := copyBound(bound)
	for _, part := range parts {
		if !orientationSafe(part, false, known) {
			return parts
		}
		addIntroduced(part, known)
	}
	known = copyBound(bound)
	remaining := withClauseLabels(parts)
	planned := make([]*PatternPart, 0, len(parts))
	for len(remaining) > 0 {
		best, bestRank := -1, 4 // worse than any anchor
		var bestPart *PatternPart
		for i, part := range remaining {
			if !orientationSafe(part, false, known) {
				continue // depends on a part not yet placed
			}
			p, rank := part, anchorRank(part, known, sargs)
			if reversible(part) && orientationSafe(part, true, known) {
				rp := reversePart(part)
				if r := anchorRank(rp, known, sargs); r < rank {
					p, rank = rp, r
				}
			}
			if rank < bestRank {
				best, bestRank, bestPart = i, rank, p
			}
		}
		if best == -1 {
			// Unplaceable under current bindings (only possible with exotic
			// cross-part references); give up on reordering entirely.
			return parts
		}
		planned = append(planned, bestPart)
		addIntroduced(bestPart, known)
		remaining = append(remaining[:best:best], remaining[best+1:]...)
	}
	return planned
}

// anchorRank ranks the anchor a part starts from, best first: 0 a bound
// variable; 1 a label with an equality or IN Sarg, an index seek; 2 a
// label, or for an unlabeled node a Sarg on its edgeSeekRel, an edge seek;
// 3 nothing, a scan of every node.
func anchorRank(part *PatternPart, bound map[string]bool, sargs []Sarg) int {
	np := part.Nodes[0]
	on := func(v string, props map[string]Expr, point bool) bool {
		return slices.ContainsFunc(sargs, func(s Sarg) bool { return (s.point() || !point) && s.applies(v, props) })
	}
	switch {
	case np.Var != "" && bound[np.Var]:
		return 0
	case len(np.Labels) > 0 && on(np.Var, np.Props, true):
		return 1
	case len(np.Labels) > 0:
		return 2
	}
	if rel, ok := edgeSeekRel(part); ok && on(rel.Var, rel.Props, false) {
		return 2
	}
	return 3
}

// withClauseLabels copies the parts with every node variable carrying every
// label the clause gives it, so an anchor ranks and scans by the smallest:
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
