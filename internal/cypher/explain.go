package cypher

import (
	"fmt"
	"strings"
)

// Explain renders the logical execution plan of a query against the bound
// graph: one line per pipeline stage, annotated with the anchor choices the
// matcher will make (which label index seeds each pattern) and estimated
// candidate counts. It executes nothing.
func (ex *Executor) Explain(src string) (string, error) {
	q, _, err := ex.plan(src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Plan:\n")
	depth := 1
	line := func(format string, args ...any) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	bound := map[string]bool{}

	for _, cl := range q.Clauses {
		switch c := cl.(type) {
		case *MatchClause:
			kw := "Match"
			if c.Optional {
				kw = "OptionalMatch"
			}
			line("%s (%d pattern(s))", kw, len(c.Patterns))
			depth++
			accs := ex.bindSargs(c.sargs, nil, true)
			mp := ex.planMatch(ex.g, c.Patterns, bound, accs)
			if mp.reordered {
				line("CostOrder: order=%v reversed=%v est=%v [smallest anchor first]", mp.order, mp.reversed, mp.est)
			}
			for _, part := range mp.parts {
				ex.explainPart(part, bound, accs, line)
			}
			if c.Where != nil {
				line("Filter: %s", c.Where.exprString())
			}
			depth--
		case *WithClause:
			line("Project (WITH): %s", projectionSummary(&c.Projection))
			rebind(bound, &c.Projection)
			if c.Where != nil {
				line("Filter: %s", c.Where.exprString())
			}
		case *ReturnClause:
			line("Project (RETURN): %s", projectionSummary(&c.Projection))
		case *UnwindClause:
			line("Unwind %s AS %s", c.Expr.exprString(), c.Alias)
			bound[c.Alias] = true
		case *CreateClause:
			line("Create (%d pattern(s))", len(c.Patterns))
			for _, part := range c.Patterns {
				markPatternVars(part, bound)
			}
		case *SetClause:
			line("Set (%d item(s))", len(c.Items))
		case *DeleteClause:
			kw := "Delete"
			if c.Detach {
				kw = "DetachDelete"
			}
			line("%s (%d target(s))", kw, len(c.Exprs))
		}
	}
	pc := ex.PlanCacheStats()
	is := ex.g.IndexStats()
	fmt.Fprintf(&b, "Cache: plan hits=%d misses=%d entries=%d; prop index builds=%d lookups=%d live=%d",
		pc.Hits, pc.Misses, pc.Entries, is.EqBuilds, is.EqLookups, is.EqLive)
	if is.OrdNodeBuilds+is.OrdEdgeBuilds > 0 {
		fmt.Fprintf(&b, "; ordered index builds=%d/%d seeks=%d rows=%d",
			is.OrdNodeBuilds, is.OrdEdgeBuilds, is.OrdSeeks, is.OrdRows)
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// explainPart renders the part's anchor through the matcher's own choosers
// (sarg.go) and its expansions. A seek on a parameter slot shows the slot
// and no estimate: Explain has no parameters to count.
func (ex *Executor) explainPart(part *PatternPart, bound map[string]bool, accs []access, line func(string, ...any)) {
	n0 := part.Nodes[0]
	if n0.Var != "" && bound[n0.Var] {
		line("AnchorOnBound(%s)", n0.Var)
	} else if s, ok := chooseNodeSeek(ex.g, n0, accs); ok {
		index := "ordered index"
		if s.point() {
			index = "label+property index"
		}
		line("%s%s [%s]", s.info(n0.Var).head(), estimate(s.est, "candidate(s)"), index)
	} else if len(n0.Labels) > 0 {
		label, ns := smallestLabel(ex.g, n0.Labels)
		line("NodeByLabelScan(%s:%s) ~%d candidate(s)", varOrAnon(n0.Var), label, len(ns))
	} else if s, ok := chooseEdgeSeek(ex.g, part, accs); ok {
		line("%s%s [ordered edge index]", s.info().head(), estimate(s.est, "endpoint(s)"))
	} else {
		line("AllNodesScan(%s) ~%d candidate(s)", varOrAnon(n0.Var), ex.g.NodeCount())
	}
	markPatternVars(part, bound)
	for i, rel := range part.Rels {
		dir := "both"
		switch rel.Direction {
		case DirOut:
			dir = "out"
		case DirIn:
			dir = "in"
		}
		target := part.Nodes[i+1]
		typ := "*any*"
		if len(rel.Types) > 0 {
			typ = strings.Join(rel.Types, "|")
		}
		hops := ""
		if rel.IsVarLength() {
			if rel.MaxHops < 0 {
				hops = fmt.Sprintf(" hops %d..inf", rel.MinHops)
			} else {
				hops = fmt.Sprintf(" hops %d..%d", rel.MinHops, rel.MaxHops)
			}
		}
		sel := ""
		if len(rel.Types) == 1 {
			sel = fmt.Sprintf(" ~%d edge(s) of type", len(ex.g.EdgesWithType(rel.Types[0])))
		}
		line("Expand(%s, dir=%s%s) -> %s%s", typ, dir, hops, nodeSummary(target), sel)
	}
}

// estimate renders a candidate estimate, or nothing when a parameter slot
// leaves it unknown.
func estimate(n int, unit string) string {
	if n < 0 {
		return ""
	}
	return fmt.Sprintf(" ~%d %s", n, unit)
}

func varOrAnon(v string) string {
	if v == "" {
		return "_"
	}
	return v
}

func nodeSummary(n *NodePattern) string {
	s := "(" + varOrAnon(n.Var)
	for _, l := range n.Labels {
		s += ":" + l
	}
	return s + ")"
}

func markPatternVars(part *PatternPart, bound map[string]bool) {
	for _, n := range part.Nodes {
		if n.Var != "" {
			bound[n.Var] = true
		}
	}
	for _, r := range part.Rels {
		if r.Var != "" {
			bound[r.Var] = true
		}
	}
}

func projectionSummary(p *Projection) string {
	var parts []string
	if p.Distinct {
		parts = append(parts, "DISTINCT")
	}
	if p.Star {
		parts = append(parts, "*")
	}
	agg := false
	for _, it := range p.Items {
		if ContainsAggregate(it.Expr) {
			agg = true
		}
		parts = append(parts, it.Name())
	}
	s := strings.Join(parts, ", ")
	if agg {
		s += " [grouped aggregate]"
	}
	if len(p.OrderBy) > 0 {
		s += fmt.Sprintf(" [sort x%d]", len(p.OrderBy))
	}
	if p.Skip != nil || p.Limit != nil {
		s += " [paginate]"
	}
	return s
}

func rebind(bound map[string]bool, p *Projection) {
	if !p.Star {
		for k := range bound {
			delete(bound, k)
		}
	}
	for _, it := range p.Items {
		bound[it.Name()] = true
	}
}
