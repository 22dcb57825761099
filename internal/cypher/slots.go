package cypher

// Slot resolution. A binding row is a slice with one Datum per variable
// name of its query; resolve numbers the names once per *Query, at its
// first execution, and stores each slot on the AST nodes that bind or read
// the name. Parse does not resolve: callers rewrite fresh ASTs in place
// (lint renames variables), but once a query has run its AST is read-only.
// A slot belongs to a name, not a binding: WITH x.id AS x reuses x's slot,
// and a name nothing binds keeps an unbound slot, so reading it is the
// usual "not defined" error.

import "github.com/graphrules/graphrules/internal/graph"

// unboundNode marks an unbound slot; see unbound.
var unboundNode = new(graph.Node)

// unbound is the Datum of a slot no clause has bound. It differs from
// NULL (Datum{}), which OPTIONAL MATCH binds.
var unbound = Datum{Node: unboundNode}

// bound reports whether d is a binding rather than an unbound slot.
func (d Datum) bound() bool { return d.Node != unboundNode }

// newRow returns a row of n unbound slots.
func newRow(n int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = unbound
	}
	return r
}

// width counts the variables the row binds.
func (r Row) width() int {
	n := 0
	for _, d := range r {
		if d.bound() {
			n++
		}
	}
	return n
}

// propExpr is one inline property constraint of a pattern element.
type propExpr struct {
	key string
	e   Expr
}

// resolve gives every variable name of q a slot and records the scope the
// pipeline compiles against: the variables bound before each MATCH and its
// planned parts (plan.go), each projection's items (a star expanded to the
// variables in scope) and columns, and the key order a first MATCH
// provides the projection after it (sarg.go, keyOrder). It also turns inline property maps into
// key-ordered slices, so a candidate check does not range over a map.
// Concurrent executions of one Query resolve it once.
func (q *Query) resolve() {
	q.resolved.Do(func() {
		slots := map[string]int{}
		of := func(name string) int {
			s, ok := slots[name]
			if !ok {
				s = len(slots)
				slots[name] = s
			}
			return s
		}
		ForEachPattern(q, func(part *PatternPart) {
			for _, n := range part.Nodes {
				n.slot, n.props = of(n.Var), propList(n.Props)
			}
			for _, r := range part.Rels {
				r.slot, r.props = of(r.Var), propList(r.Props)
			}
		})
		WalkExprs(q, func(e Expr) {
			if v, ok := e.(*Variable); ok {
				v.slot = of(v.Name)
			}
		})
		scope := map[string]bool{}
		for _, cl := range q.Clauses {
			switch c := cl.(type) {
			case *MatchClause:
				c.bound = copyBound(scope)
				c.parts = planParts(c.Patterns, c.bound, c.sargs)
				for _, part := range c.Patterns {
					addIntroduced(part, scope)
				}
			case *CreateClause:
				for _, part := range c.Patterns {
					addIntroduced(part, scope)
				}
			case *UnwindClause:
				c.slot = of(c.Alias)
				scope[c.Alias] = true
			case *SetClause:
				for _, it := range c.Items {
					it.slot = of(it.Target)
				}
			case *WithClause:
				c.expand(scope, of)
				scope = map[string]bool{}
				for _, col := range c.cols {
					scope[col] = true
				}
			case *ReturnClause:
				c.expand(scope, of)
			}
		}
		if len(q.Clauses) > 1 {
			m, _ := q.Clauses[0].(*MatchClause)
			switch c := q.Clauses[1].(type) {
			case *WithClause:
				c.runs = keyOrder(m, &c.Projection)
			case *ReturnClause:
				c.runs = keyOrder(m, &c.Projection)
			}
		}
		q.width = len(slots)
	})
}

// columns returns the result header: the columns of the query's final
// RETURN, none when it returns nothing.
func (q *Query) columns() []string {
	q.resolve()
	if n := len(q.Clauses); n > 0 {
		if r, ok := q.Clauses[n-1].(*ReturnClause); ok {
			return r.cols
		}
	}
	return nil
}

// expand resolves the projection against the variables in scope: star
// items first (sorted by name), then the written items. A column is named
// by its item, with "_" suffixed to a repeated name.
func (pr *Projection) expand(scope map[string]bool, of func(string) int) {
	pr.items = pr.Items
	if pr.Star {
		var star []*ReturnItem
		for _, v := range sortedKeys(scope) {
			star = append(star, &ReturnItem{Expr: &Variable{Name: v, slot: of(v)}, Alias: v})
		}
		pr.items = append(star, pr.Items...)
	}
	pr.cols, pr.colSlots = make([]string, len(pr.items)), make([]int, len(pr.items))
	seen := map[string]bool{}
	for i, it := range pr.items {
		name := it.Name()
		for seen[name] {
			name += "_"
		}
		seen[name] = true
		pr.cols[i], pr.colSlots[i] = name, of(name)
	}
}

// propList returns props as a slice ordered by key.
func propList(props map[string]Expr) []propExpr {
	var out []propExpr
	for _, k := range sortedPropKeys(props) {
		out = append(out, propExpr{k, props[k]})
	}
	return out
}
