package lint

import (
	"github.com/graphrules/graphrules/internal/cypher"
)

func init() {
	Register(&Analyzer{
		Name:     "cartesian",
		Doc:      "MATCH with disconnected pattern parts builds a cartesian product",
		Severity: Warning,
		Run:      runCartesian,
	})
	Register(&Analyzer{
		Name:     "indexseek",
		Doc:      "seekable WHERE predicate (equality, IN, range or prefix on a literal or $parameter) on a variable bound without a label or relationship type, so no index can serve it",
		Severity: Info,
		Run:      runIndexSeek,
	})
}

// runCartesian warns when one MATCH clause contains pattern parts that share
// no variables — neither with each other nor with anything bound earlier —
// so the executor must enumerate their cross product.
func runCartesian(p *Pass) {
	bound := map[string]bool{}
	for _, cl := range p.Query.Clauses {
		m, ok := cl.(*cypher.MatchClause)
		if !ok {
			// Conservatively mark everything any other clause binds.
			switch c := cl.(type) {
			case *cypher.CreateClause:
				for _, part := range c.Patterns {
					addPatternVars(part, bound)
				}
			case *cypher.UnwindClause:
				bound[c.Alias] = true
			case *cypher.WithClause:
				for _, it := range c.Items {
					bound[it.Name()] = true
				}
			}
			continue
		}
		if len(m.Patterns) > 1 {
			// Union-find over the parts; parts touching any previously
			// bound variable share the "anchored" component 0..n-1 ∪ {n}.
			n := len(m.Patterns)
			parent := make([]int, n+1)
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					parent[x] = parent[parent[x]]
					x = parent[x]
				}
				return x
			}
			union := func(a, b int) { parent[find(a)] = find(b) }
			varParts := map[string]int{}
			for i, part := range m.Patterns {
				vars := map[string]bool{}
				addPatternVars(part, vars)
				for v := range vars {
					if bound[v] {
						union(i, n) // anchored to the outer scope
					}
					if j, seen := varParts[v]; seen {
						union(i, j)
					} else {
						varParts[v] = i
					}
				}
			}
			first := find(0)
			for i := 1; i < n; i++ {
				if find(i) != first {
					p.Reportf(m.Patterns[i].SourceSpan(),
						"pattern shares no variables with the preceding patterns; this MATCH builds a cartesian product")
					// Merge so one disconnected clause reports once per
					// extra component, not once per part.
					union(i, 0)
					first = find(0)
				}
			}
		}
		for _, part := range m.Patterns {
			addPatternVars(part, bound)
		}
	}
}

// runIndexSeek flags the WHERE predicates the planner's own classifier
// (cypher.Sargs) accepts — equality, IN, range or prefix on a literal or
// $parameter — whose variable no index can serve, because every pattern
// element binding it lacks a label (nodes) or a type (relationships). On
// a labeled node or typed relationship such a predicate seeks the index
// from WHERE exactly as it would inline, so it draws nothing.
func runIndexSeek(p *Pass) {
	for _, cl := range p.Query.Clauses {
		m, ok := cl.(*cypher.MatchClause)
		if !ok {
			continue
		}
		// Whether some element binding each variable is labeled / typed.
		labeled := map[string]bool{}
		typed := map[string]bool{}
		for _, part := range m.Patterns {
			for _, n := range part.Nodes {
				if n.Var != "" {
					labeled[n.Var] = labeled[n.Var] || len(n.Labels) > 0
				}
			}
			for _, r := range part.Rels {
				if r.Var != "" {
					typed[r.Var] = typed[r.Var] || len(r.Types) > 0
				}
			}
		}
		for _, s := range cypher.Sargs(m) {
			if s.Src == nil {
				continue // inline: constrains its own element, labeled or not
			}
			if ok, isRel := typed[s.Var]; isRel {
				if !ok {
					p.Reportf(s.Src.OpSpan,
						"predicate on %s.%s cannot use the edge index: the pattern binds `%s` without a relationship type",
						s.Var, s.Key, s.Var)
				}
				continue
			}
			if ok, isNode := labeled[s.Var]; isNode && !ok {
				p.Reportf(s.Src.OpSpan,
					"predicate on %s.%s cannot use an index: the pattern binds `%s` without a label",
					s.Var, s.Key, s.Var)
			}
		}
	}
}
