package cypher

// Differential oracle for the executor's seeks and plans: every query in a
// corpus (a fixed schema-derived set plus seeded randomized queries) runs
// under the reference configuration, seeks on, and under the noseeks grid
// configuration, which turns every seek off (equality, IN, range, prefix,
// edge), so each seek kind is compared with a pure scan. The plan depends
// on neither (plan.go), and seeks return candidates in scan-equivalent
// order, so noseeks must reproduce the reference row order exactly.
// Metamorphic arms then rewrite each query into forms that must give the
// reference rows in the reference order on the reference executor itself
// (see metamorphicArms); the respelling arm lists every MATCH's parts in
// reverse and writes each reversible part backwards, so the planner starts
// elsewhere, and must give the reference rows as a sorted multiset (see
// respell). The count arm checks the
// Aggregate operator against the row stream: for every `MATCH … RETURN
// <items>` query, `RETURN count(*)` over the same MATCH equals the number
// of reference rows (see countQuery), and the grouping arms check grouped
// counts and DISTINCT keys against it (see groupingQueries); the ordered
// arm adds `IS NOT NULL` on the grouping key, which walks it in key order,
// and compares with the hash table's groups (see orderedQueries). The NaN
// arm reruns the grid with every numeric literal of the MATCH clauses
// turned into a NaN parameter (see nanParams), so a seek on a NaN bound
// must agree with the scan. The cursor arm reads each query through two
// Session cursors paged in turns on one configuration (see pagedRun); both
// must reproduce Executor.Run's rows exactly. Queries are
// checked from a worker pool over shared executors, so the oracle also
// exercises the engine's only parallelism: concurrent serial queries on
// one Executor.
//
// Environment knobs (all optional):
//
//	GRAPHRULES_ORACLE_SEED      generator seed (default 1)
//	GRAPHRULES_ORACLE_RANDOM    randomized queries per dataset (default 60;
//	                            CI's oracle job runs the full 200)
//	GRAPHRULES_ORACLE_ARTIFACT  file to append failing query reproductions to

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

type oracleConfig struct {
	name  string
	seeks bool // every index seek (the reference runs with them on)
}

// oracleRef is the reference configuration: the default executor.
var oracleRef = oracleConfig{name: "ref", seeks: true}

// oracleGrid is every configuration compared against oracleRef.
var oracleGrid = []oracleConfig{{name: "noseeks", seeks: false}}

func newOracleExecutor(g *graph.Graph, cfg oracleConfig, opts ...Option) *Executor {
	ex := NewExecutor(g, opts...)
	ex.noSeeks = !cfg.seeks
	return ex
}

// oracleRun executes one query and renders every result row to a canonical
// string (column order is part of the rendering, row order is preserved).
func oracleRun(ex *Executor, src string, params map[string]graph.Value) (rows []string, errStr string) {
	res, err := ex.Run(src, params)
	if err != nil {
		return nil, err.Error()
	}
	return renderRows(res), ""
}

// renderRows canonicalizes a result's rows, preserving row order.
func renderRows(res *Result) []string {
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, renderRow(r))
	}
	return rows
}

func renderRow(r []Datum) string {
	var b strings.Builder
	for i, d := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		b.Write(d.appendHashable(nil))
	}
	return b.String()
}

// pagedRun runs src on two sessions of ex at once and reads their cursors
// in turns, a page of 1–7 rows from one, then from the other, so two
// suspended runs interleave on one goroutine. Each result is rendered as
// oracleRun renders it.
func pagedRun(ex *Executor, src string, params map[string]graph.Value, rng *rand.Rand) (rows [2][]string, errStr [2]string) {
	var curs [2]*Cursor
	for i := range curs {
		s := ex.OpenSession()
		defer s.Close()
		c, err := s.Run(context.Background(), src, params)
		if err != nil {
			errStr[i] = err.Error()
			continue
		}
		curs[i] = c
	}
	for curs[0] != nil || curs[1] != nil {
		for i, c := range curs {
			for k := 1 + rng.Intn(7); c != nil && k > 0; k-- {
				if c.Next() {
					rows[i] = append(rows[i], renderRow(c.Record()))
					continue
				}
				if err := c.Err(); err != nil {
					rows[i], errStr[i] = nil, err.Error()
				}
				curs[i], c = nil, nil
			}
		}
	}
	return rows, errStr
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeOracleArtifact appends a failing-query reproduction to the artifact
// file named by GRAPHRULES_ORACLE_ARTIFACT, for CI upload.
func writeOracleArtifact(dataset string, seed int64, cfg, query, detail string) {
	path := os.Getenv("GRAPHRULES_ORACLE_ARTIFACT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "dataset=%s seed=%d config=%s\nquery: %s\n%s\n\n", dataset, seed, cfg, query, detail)
}

func envInt64(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

func TestDifferentialOracle(t *testing.T) {
	seed := envInt64("GRAPHRULES_ORACLE_SEED", 1)
	nRandom := int(envInt64("GRAPHRULES_ORACLE_RANDOM", 60))
	if testing.Short() && os.Getenv("GRAPHRULES_ORACLE_RANDOM") == "" {
		nRandom = 15
	}
	for _, name := range datasets.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			gen, err := datasets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
			sch := newOracleSchema(g)
			rng := rand.New(rand.NewSource(seed))
			corpus := sch.fixedCorpus()
			for i := 0; i < nRandom; i++ {
				corpus = append(corpus, sch.randomQuery(rng))
			}

			ref := newOracleExecutor(g, oracleRef)
			gridEx := make([]*Executor, len(oracleGrid))
			for i, cfg := range oracleGrid {
				gridEx[i] = newOracleExecutor(g, cfg)
			}

			// Queries are independent and every executor is safe for
			// concurrent use, so comparisons run on a worker pool; failures
			// are reported with the reproducing seed.
			var (
				wg   sync.WaitGroup
				next atomic.Int64
				mu   sync.Mutex
			)
			checkQuery := func(qi int, q string) {
				fail := func(cfg, kind, detail string) {
					mu.Lock()
					defer mu.Unlock()
					writeOracleArtifact(name, seed, cfg, q, detail)
					t.Errorf("%s under %s (reproduce with GRAPHRULES_ORACLE_SEED=%d):\nquery: %s\n%s",
						kind, cfg, seed, q, detail)
				}
				// cursorArm reads q through two interleaved paged cursors
				// (pagedRun) on one configuration, the reference and the
				// grid taking turns query by query; each cursor must give
				// exactly the rows and error Executor.Run gave there.
				arm := qi % (1 + len(oracleGrid))
				cursorArm := func(ci int, cfg string, ex *Executor, want []string, wantErr string) bool {
					if ci != arm {
						return true
					}
					rows, errs := pagedRun(ex, q, nil, rand.New(rand.NewSource(seed+int64(qi))))
					for i := range rows {
						if errs[i] != wantErr || !rowsEqual(rows[i], want) {
							fail(cfg, "cursor divergence", fmt.Sprintf("Executor.Run rows %v err=%q\npaged cursor %d rows %v err=%q", want, wantErr, i, rows[i], errs[i]))
							return false
						}
					}
					return true
				}
				// grid runs text on the reference and on every grid
				// configuration; ok is false once it reported a divergence.
				grid := func(text string, params map[string]graph.Value) (refRows []string, refErr string, ok bool) {
					at := ""
					if text != q {
						at = fmt.Sprintf("rewritten: %s params=%v\n", text, params)
					}
					refRows, refErr = oracleRun(ref, text, params)
					if text == q && !cursorArm(0, oracleRef.name, ref, refRows, refErr) {
						return nil, "", false
					}
					for i, cfg := range oracleGrid {
						gotRows, gotErr := oracleRun(gridEx[i], text, params)
						if text == q && !cursorArm(1+i, cfg.name, gridEx[i], gotRows, gotErr) {
							return nil, "", false
						}
						if (refErr != "") != (gotErr != "") {
							fail(cfg.name, "error divergence", at+fmt.Sprintf("reference err=%q, %s err=%q", refErr, cfg.name, gotErr))
							return nil, "", false
						}
						if refErr != "" {
							continue // both failed; nothing further to compare
						}
						if !rowsEqual(refRows, gotRows) {
							fail(cfg.name, "row-order divergence", at+fmt.Sprintf("reference order %v\n%s order %v", refRows, cfg.name, gotRows))
							return nil, "", false
						}
					}
					return refRows, refErr, true
				}
				refRows, refErr, ok := grid(q, nil)
				if !ok || refErr != "" {
					return
				}
				if text, params, _ := rewriteQuery(q, nanParams); params != nil {
					if _, _, ok := grid(text, params); !ok {
						return
					}
				}
				for _, arm := range metamorphicArms {
					text, params, changed := rewriteQuery(q, arm.rewrite)
					if !changed {
						continue
					}
					res, err := ref.Run(text, params)
					if err != nil {
						fail("meta-"+arm.name, "error divergence", fmt.Sprintf("rewritten: %s params=%v\nerr=%v", text, params, err))
						return
					}
					if got := renderRows(res); !rowsEqual(refRows, got) {
						fail("meta-"+arm.name, "metamorphic divergence",
							fmt.Sprintf("rewritten: %s params=%v\nreference %v\nrewritten %v", text, params, refRows, got))
						return
					}
				}
				if text, _, changed := rewriteQuery(q, respell); changed {
					rows, errStr := oracleRun(ref, text, nil)
					if want, got := sortedCopy(refRows), sortedCopy(rows); errStr != "" || !rowsEqual(want, got) {
						fail("respell", "respelling divergence", fmt.Sprintf("rewritten: %s\nreference sorted %v\nrespelled sorted %v err=%q", text, want, got, errStr))
						return
					}
				}
				if text, ok := countQuery(q); ok {
					n := int64(-1)
					res, err := ref.Run(text, nil)
					if err == nil {
						n = res.FirstInt("n")
					}
					if n != int64(len(refRows)) {
						fail("count", "aggregate divergence",
							fmt.Sprintf("rewritten: %s\n%d reference rows, count %d, err=%v", text, len(refRows), n, err))
					}
				}
				if sum, dc, dr, ok := groupingQueries(q); ok {
					first := func(text string) int64 {
						if res, err := ref.Run(text, nil); err == nil {
							return res.FirstInt("n")
						}
						return -1
					}
					if n := first(sum); n != int64(len(refRows)) {
						fail("group-sum", "aggregate divergence", fmt.Sprintf("rewritten: %s\n%d reference rows, sum of group counts %d", sum, len(refRows), n))
					}
					rows, errStr := oracleRun(ref, dr, nil)
					if n := first(dc); errStr != "" || n != int64(len(rows)) {
						fail("group-distinct", "aggregate divergence", fmt.Sprintf("%s = %d\n%s: %d rows, err=%s", dc, n, dr, len(rows), errStr))
					}
				}
				for _, pair := range orderedQueries(q) {
					got, gotErr, ok := grid(pair[0], nil)
					if !ok {
						return
					}
					var want []string
					res, err := ref.Run(pair[1], nil)
					if err == nil {
						for _, r := range res.Rows {
							if !r[0].IsNull() {
								want = append(want, renderRow(r))
							}
						}
					}
					if gotErr != "" || err != nil || !rowsEqual(sortedCopy(got), sortedCopy(want)) {
						fail("ordered", "ordered grouping divergence", fmt.Sprintf("%s: %v err=%s\n%s without its null key: %v err=%v",
							pair[0], sortedCopy(got), gotErr, pair[1], sortedCopy(want), err))
					}
				}
			}
			workers := runtime.GOMAXPROCS(0)
			if workers > len(corpus) {
				workers = len(corpus)
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(corpus) || t.Failed() {
							return
						}
						checkQuery(i, corpus[i])
					}
				}()
			}
			wg.Wait()
		})
	}
}

// ---------- metamorphic arms ----------

// metamorphicArms rewrite a query into forms that must give the same rows
// in the same order on the reference executor. They need no second engine:
// each rewrite moves predicates onto another seek path — a $parameter
// slot, a WHERE conjunct instead of an inline map, commuted conjuncts, a
// one-element IN list — and any seek returns a subsequence of the scan, so
// the rows and their order may not move; with-star routes every row
// through a `WITH *` projection, which rebinds each variable unchanged;
// rename α-renames every variable, which moves nothing but names.
var metamorphicArms = []struct {
	name    string
	rewrite func(*Query) map[string]graph.Value
}{
	{"param", liftParams},
	{"where", func(q *Query) map[string]graph.Value { inlineToWhere(q); return nil }},
	{"where-param", func(q *Query) map[string]graph.Value { inlineToWhere(q); return liftParams(q) }},
	{"commute", func(q *Query) map[string]graph.Value { inlineToWhere(q); commuteWhere(q); return nil }},
	{"in", func(q *Query) map[string]graph.Value { inlineToWhere(q); eqToIn(q); return nil }},
	{"in-param", func(q *Query) map[string]graph.Value { inlineToWhere(q); eqToIn(q); return liftParams(q) }},
	{"with-star", func(q *Query) map[string]graph.Value { withStar(q); return nil }},
	{"rename", func(q *Query) map[string]graph.Value { renameVars(q); return nil }},
}

// renameVars prefixes every variable name of q with "v_": the pattern,
// UNWIND and SET binders, the projection aliases and every reference. A
// uniform prefix keeps the names' order, so RETURN * keeps its columns'.
func renameVars(q *Query) {
	re := func(name string) string {
		if name == "" {
			return ""
		}
		return "v_" + name
	}
	ForEachPattern(q, func(part *PatternPart) {
		for _, n := range part.Nodes {
			n.Var = re(n.Var)
		}
		for _, r := range part.Rels {
			r.Var = re(r.Var)
		}
	})
	WalkExprs(q, func(e Expr) {
		if v, ok := e.(*Variable); ok {
			v.Name = re(v.Name)
		}
	})
	for _, cl := range q.Clauses {
		switch c := cl.(type) {
		case *UnwindClause:
			c.Alias = re(c.Alias)
		case *SetClause:
			for _, it := range c.Items {
				it.Target = re(it.Target)
			}
		case *WithClause:
			for _, it := range c.Items {
				it.Alias = re(it.Alias)
			}
		case *ReturnClause:
			for _, it := range c.Items {
				it.Alias = re(it.Alias)
			}
		}
	}
}

// nanParams lifts the MATCH clauses' literals into parameters (liftParams)
// and sets every number among them, alone or in a list, to NaN; nil when
// there is none.
func nanParams(q *Query) map[string]graph.Value {
	nan := graph.NewFloat(math.NaN())
	params, any := liftParams(q), false
	for k, v := range params {
		if _, ok := v.AsFloat(); ok {
			params[k], any = nan, true
		} else if v.Kind() == graph.KindList {
			vs := append([]graph.Value(nil), v.List()...)
			for i, e := range vs {
				if _, ok := e.AsFloat(); ok {
					vs[i], any = nan, true
				}
			}
			params[k] = graph.NewList(vs...)
		}
	}
	if !any {
		return nil
	}
	return params
}

// respell lists every MATCH clause's parts in reverse and writes each part
// without a variable-length relationship backwards, by its own walk rather
// than the planner's reversePart: the same pattern, spelled so that the
// planner starts from another part and another end. Rows may come in
// another order, but not as another multiset.
func respell(q *Query) map[string]graph.Value {
	for _, mc := range matchClauses(q) {
		slices.Reverse(mc.Patterns)
		for _, part := range mc.Patterns {
			if slices.ContainsFunc(part.Rels, (*RelPattern).IsVarLength) {
				continue // its variable binds the edges in walk order
			}
			slices.Reverse(part.Nodes)
			slices.Reverse(part.Rels)
			for _, r := range part.Rels {
				switch r.Direction {
				case DirOut:
					r.Direction = DirIn
				case DirIn:
					r.Direction = DirOut
				}
			}
		}
	}
	return nil
}

// withStar inserts `WITH *` before the final RETURN.
func withStar(q *Query) {
	n := len(q.Clauses)
	if rc, ok := q.Clauses[n-1].(*ReturnClause); ok {
		q.Clauses = append(q.Clauses[:n-1:n-1], &WithClause{Projection: Projection{Star: true}}, rc)
	}
}

// countQuery rewrites `MATCH … [WHERE …] RETURN <items>` — one non-optional
// MATCH, items without aggregates, no DISTINCT, SKIP or LIMIT — into the
// same MATCH with `RETURN count(*) AS n`.
func countQuery(src string) (string, bool) {
	q, ok := countShape(src)
	if !ok {
		return "", false
	}
	q.Clauses[1] = returnN(&FuncCall{Name: "count", Star: true})
	return q.String(), true
}

// countShape parses src and reports whether it has countQuery's shape.
func countShape(src string) (*Query, bool) {
	q, err := Parse(src)
	if err != nil || len(q.Clauses) != 2 {
		return nil, false
	}
	if mc, ok := q.Clauses[0].(*MatchClause); !ok || mc.Optional {
		return nil, false
	}
	rc, ok := q.Clauses[1].(*ReturnClause)
	if !ok || rc.Distinct || rc.Skip != nil || rc.Limit != nil {
		return nil, false
	}
	for _, it := range rc.Items {
		if ContainsAggregate(it.Expr) {
			return nil, false
		}
	}
	return q, true
}

func returnN(e Expr) *ReturnClause {
	return &ReturnClause{Projection: Projection{Items: []*ReturnItem{{Expr: e, Alias: "n"}}}}
}

// groupingQueries rewrites a countQuery-shaped query into the two grouping
// arms, keyed on its first item k. Summing the group sizes of
// `WITH k, count(*) AS c RETURN sum(c)` must give the reference row count;
// `RETURN count(DISTINCT k)` must equal the number of rows of
// `WITH DISTINCT k WHERE k IS NOT NULL RETURN k` (count skips nulls). So
// the Aggregate and Distinct operators' keys are checked against the row
// stream and against each other.
func groupingQueries(src string) (sum, distinctCount, distinctRows string, ok bool) {
	q, ok := countShape(src)
	if !ok {
		return "", "", "", false
	}
	match := q.Clauses[0]
	k := q.Clauses[1].(*ReturnClause).Items[0].Expr
	kv := &Variable{Name: "k"}
	render := func(cls ...Clause) string { return (&Query{Clauses: append([]Clause{match}, cls...)}).String() }
	sum = render(
		&WithClause{Projection: Projection{Items: []*ReturnItem{{Expr: k, Alias: "k"}, {Expr: &FuncCall{Name: "count", Star: true}, Alias: "c"}}}},
		returnN(&FuncCall{Name: "sum", Args: []Expr{&Variable{Name: "c"}}}))
	distinctCount = render(returnN(&FuncCall{Name: "count", Distinct: true, Args: []Expr{k}}))
	distinctRows = render(
		&WithClause{Projection: Projection{Distinct: true, Items: []*ReturnItem{{Expr: k, Alias: "k"}}},
			Where: &IsNull{E: kv, Negate: true}},
		&ReturnClause{Projection: Projection{Items: []*ReturnItem{{Expr: kv, Alias: "k"}}}})
	return sum, distinctCount, distinctRows, true
}

// orderedQueries rewrites a countQuery-shaped query whose first item is a
// property v.k into the two shapes a key-order walk groups: `WITH v.k AS
// k, count(*) AS c RETURN k, c` and `RETURN DISTINCT v.k AS k`. Each comes
// as a pair: with `v.k IS NOT NULL` added to the MATCH's WHERE (keyOrder's
// shape when the MATCH anchors at v), and without it, grouped by the hash
// table. The first must give the second's rows minus its null-key group,
// as a multiset: the walk emits groups in key order, the hash table in
// first-seen order.
func orderedQueries(src string) (pairs [][2]string) {
	q, ok := countShape(src)
	if !ok {
		return nil
	}
	k, ok := q.Clauses[1].(*ReturnClause).Items[0].Expr.(*PropAccess)
	if !ok {
		return nil
	}
	if _, ok := k.Target.(*Variable); !ok {
		return nil
	}
	m := q.Clauses[0].(*MatchClause)
	notNull := &MatchClause{Patterns: m.Patterns, Where: andAll([]Expr{m.Where, &IsNull{E: k, Negate: true}})}
	kv, cv := &Variable{Name: "k"}, &Variable{Name: "c"}
	grouped := []Clause{
		&WithClause{Projection: Projection{Items: []*ReturnItem{{Expr: k, Alias: "k"}, {Expr: &FuncCall{Name: "count", Star: true}, Alias: "c"}}}},
		&ReturnClause{Projection: Projection{Items: []*ReturnItem{{Expr: kv, Alias: "k"}, {Expr: cv, Alias: "c"}}}},
	}
	distinct := []Clause{&ReturnClause{Projection: Projection{Distinct: true, Items: []*ReturnItem{{Expr: k, Alias: "k"}}}}}
	for _, tail := range [][]Clause{grouped, distinct} {
		pairs = append(pairs, [2]string{
			(&Query{Clauses: append([]Clause{notNull}, tail...)}).String(),
			(&Query{Clauses: append([]Clause{m}, tail...)}).String(),
		})
	}
	return pairs
}

// rewriteQuery parses src, applies one rewrite and renders the result back
// to text; changed is false when the rewrite left the query as it was.
func rewriteQuery(src string, rewrite func(*Query) map[string]graph.Value) (text string, params map[string]graph.Value, changed bool) {
	q, err := Parse(src)
	if err != nil {
		return "", nil, false
	}
	before := q.String()
	params = rewrite(q)
	text = q.String()
	return text, params, len(params) > 0 || text != before
}

func matchClauses(q *Query) []*MatchClause {
	var out []*MatchClause
	for _, cl := range q.Clauses {
		if mc, ok := cl.(*MatchClause); ok {
			out = append(out, mc)
		}
	}
	return out
}

// andAll joins conjuncts left to right; nil when there are none.
func andAll(cs []Expr) Expr {
	var out Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &Binary{Op: OpAnd, L: out, R: c}
		}
	}
	return out
}

// liftParams replaces every literal or literal-list operand in a MATCH
// clause — inline property values and both sides of every WHERE operator —
// with a fresh $parameter bound to the same value.
func liftParams(q *Query) map[string]graph.Value {
	params := map[string]graph.Value{}
	lift := func(e Expr) Expr {
		var v graph.Value
		switch x := e.(type) {
		case *Literal:
			v = x.Value
		case *ListLit:
			vs := make([]graph.Value, len(x.Elems))
			for i, el := range x.Elems {
				lit, ok := el.(*Literal)
				if !ok {
					return e
				}
				vs[i] = lit.Value
			}
			v = graph.NewList(vs...)
		default:
			return e
		}
		name := fmt.Sprintf("p%d", len(params))
		params[name] = v
		return &Parameter{Name: name}
	}
	for _, mc := range matchClauses(q) {
		for _, part := range mc.Patterns {
			for _, np := range part.Nodes {
				for k, e := range np.Props {
					np.Props[k] = lift(e)
				}
			}
			for _, rp := range part.Rels {
				for k, e := range rp.Props {
					rp.Props[k] = lift(e)
				}
			}
		}
		WalkExpr(mc.Where, func(e Expr) {
			if b, ok := e.(*Binary); ok {
				b.L, b.R = lift(b.L), lift(b.R)
			}
		})
	}
	return params
}

// inlineToWhere moves every inline property of a named node or single-hop
// relationship in a MATCH clause into its WHERE as `v.k = x`.
func inlineToWhere(q *Query) {
	for _, mc := range matchClauses(q) {
		var conds []Expr
		move := func(v string, props map[string]Expr) {
			if v == "" {
				return
			}
			for _, k := range sortedPropKeys(props) {
				conds = append(conds, &Binary{Op: OpEq, L: &PropAccess{Target: &Variable{Name: v}, Key: k}, R: props[k]})
				delete(props, k)
			}
		}
		for _, part := range mc.Patterns {
			for _, np := range part.Nodes {
				move(np.Var, np.Props)
			}
			for _, rp := range part.Rels {
				if !rp.IsVarLength() {
					move(rp.Var, rp.Props)
				}
			}
		}
		if mc.Where != nil {
			conds = append(conds, mc.Where)
		}
		mc.Where = andAll(conds)
	}
}

// commuteWhere reverses the top-level conjuncts of every MATCH WHERE.
func commuteWhere(q *Query) {
	for _, mc := range matchClauses(q) {
		if mc.Where == nil {
			continue
		}
		var cs []Expr
		splitAnd(mc.Where, &cs)
		for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
			cs[i], cs[j] = cs[j], cs[i]
		}
		mc.Where = andAll(cs)
	}
}

// eqToIn rewrites every top-level WHERE conjunct `v.k = literal` as
// `v.k IN [literal]`.
func eqToIn(q *Query) {
	for _, mc := range matchClauses(q) {
		if mc.Where == nil {
			continue
		}
		var cs []Expr
		splitAnd(mc.Where, &cs)
		for i, c := range cs {
			b, ok := c.(*Binary)
			if !ok || b.Op != OpEq {
				continue
			}
			if _, ok := b.L.(*PropAccess); ok {
				if lit, ok := b.R.(*Literal); ok {
					cs[i] = &Binary{Op: OpIn, L: b.L, R: &ListLit{Elems: []Expr{lit}}}
				}
			}
		}
		mc.Where = andAll(cs)
	}
}

// ---------- schema-driven query generation ----------

type propSample struct {
	key string
	val graph.Value
}

type relSample struct {
	typ      string
	from, to string // primary endpoint labels of a sample edge
	count    int
	// props: deterministic edge-property samples (int/string valued only),
	// drawn from the first edges of the type — fuel for edge-index seeks.
	props []propSample
}

type oracleSchema struct {
	g      *graph.Graph
	labels []string
	count  map[string]int
	rels   []relSample
	// props: label -> deterministic samples (int/string valued only)
	props map[string][]propSample
	// intProps: label -> samples whose value is an integer
	intProps map[string][]propSample
	// strProps: label -> samples whose value is a plain string (fuel for
	// STARTS WITH prefix seeks)
	strProps map[string][]propSample
}

func newOracleSchema(g *graph.Graph) *oracleSchema {
	sch := &oracleSchema{
		g:        g,
		count:    map[string]int{},
		props:    map[string][]propSample{},
		intProps: map[string][]propSample{},
		strProps: map[string][]propSample{},
	}
	for _, l := range g.NodeLabels() {
		n := len(g.NodesWithLabel(l))
		if n == 0 {
			continue
		}
		sch.labels = append(sch.labels, l)
		sch.count[l] = n
		seen := map[string]bool{}
		nodes := g.LabelNodes(l)
		if len(nodes) > 50 {
			nodes = nodes[:50]
		}
		for _, node := range nodes {
			keys := make([]string, 0, len(node.Props))
			for k := range node.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if seen[k] {
					continue
				}
				v := node.Props[k]
				if _, ok := cypherLit(v); !ok {
					continue
				}
				seen[k] = true
				ps := propSample{key: k, val: v}
				sch.props[l] = append(sch.props[l], ps)
				if v.Kind() == graph.KindInt {
					sch.intProps[l] = append(sch.intProps[l], ps)
				}
				if v.Kind() == graph.KindString {
					sch.strProps[l] = append(sch.strProps[l], ps)
				}
			}
		}
	}
	for _, typ := range g.EdgeTypes() {
		ids := g.EdgesWithType(typ)
		if len(ids) == 0 {
			continue
		}
		e := g.Edge(ids[0])
		from, to := g.Node(e.From), g.Node(e.To)
		if from == nil || to == nil || len(from.Labels) == 0 || len(to.Labels) == 0 {
			continue
		}
		rs := relSample{typ: typ, from: from.Labels[0], to: to.Labels[0], count: len(ids)}
		sample := ids
		if len(sample) > 50 {
			sample = sample[:50]
		}
		eseen := map[string]bool{}
		for _, id := range sample {
			ed := g.Edge(id)
			if ed == nil {
				continue
			}
			keys := make([]string, 0, len(ed.Props))
			for k := range ed.Props {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if eseen[k] {
					continue
				}
				v := ed.Props[k]
				if _, ok := cypherLit(v); !ok {
					continue
				}
				eseen[k] = true
				rs.props = append(rs.props, propSample{key: k, val: v})
			}
		}
		sch.rels = append(sch.rels, rs)
	}
	return sch
}

// cypherLit renders a stored value as a Cypher literal; only int and
// "plain" string values are representable (no quoting edge cases).
func cypherLit(v graph.Value) (string, bool) {
	switch v.Kind() {
	case graph.KindInt:
		return strconv.FormatInt(v.Int(), 10), true
	case graph.KindString:
		s := v.Str()
		if strings.ContainsAny(s, `'\`) {
			return "", false
		}
		return "'" + s + "'", true
	}
	return "", false
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// fixedCorpus is the deterministic, schema-derived part of the corpus: one
// instance of every tricky shape per applicable label/relationship.
func (sch *oracleSchema) fixedCorpus() []string {
	qs := []string{
		"MATCH (a) RETURN count(*) AS n",
	}
	if sch.g.EdgeCount() <= 20000 {
		qs = append(qs, "MATCH (a)-[r]->(b) RETURN count(*) AS n")
	}
	for _, l := range sch.labels {
		qs = append(qs, fmt.Sprintf("MATCH (a:%s) RETURN count(*) AS n", l))
		for _, ps := range sch.props[l] {
			lit, _ := cypherLit(ps.val)
			qs = append(qs,
				fmt.Sprintf("MATCH (a:%s {%s: %s}) RETURN count(*) AS n", l, ps.key, lit),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s IS NULL RETURN count(*) AS n", l, ps.key),
				fmt.Sprintf("MATCH (a:%s) RETURN min(a.%s) AS mn, max(a.%s) AS mx, count(*) AS n", l, ps.key, ps.key),
			)
			if sch.count[l] <= 5000 {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) RETURN DISTINCT a.%s AS v ORDER BY v", l, ps.key))
			}
			break // one prop per label keeps the fixed corpus compact
		}
		// Range-predicate shapes: these exercise the ordered-index seek path
		// under pushdown configurations and the plain filter path without.
		if len(sch.intProps[l]) > 0 {
			ps := sch.intProps[l][0]
			v := ps.val.Int()
			qs = append(qs,
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d RETURN count(*) AS n", l, ps.key, v),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s < %d RETURN count(*) AS n", l, ps.key, v),
				fmt.Sprintf("MATCH (a:%s) WHERE a.%s > %d AND a.%s <= %d RETURN count(*) AS n", l, ps.key, v-3, ps.key, v+3),
			)
			if sch.count[l] <= 5000 {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d RETURN a.%s AS x", l, ps.key, v, ps.key))
			}
			// IN with a duplicate: a union of equality seeks.
			qs = append(qs, fmt.Sprintf("MATCH (a:%s) WHERE a.%s IN [%d, %d, %d] RETURN count(*) AS n", l, ps.key, v+1, v, v+1))
		}
		if len(sch.strProps[l]) > 0 {
			ps := sch.strProps[l][0]
			if s := asciiPrefix(ps.val.Str(), 2); s != "" {
				qs = append(qs, fmt.Sprintf("MATCH (a:%s) WHERE a.%s STARTS WITH '%s' RETURN count(*) AS n", l, ps.key, s))
			}
		}
	}
	for _, r := range sch.rels {
		qs = append(qs,
			fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to),
			fmt.Sprintf("MATCH (b:%s)<-[:%s]-(a:%s) RETURN count(*) AS n", r.to, r.typ, r.from),
			fmt.Sprintf("MATCH (a:%s)-[:%s]->(a) RETURN count(*) AS n", r.from, r.typ),
		)
		if sch.count[r.from] <= 5000 {
			qs = append(qs, fmt.Sprintf(
				"MATCH (a:%s) OPTIONAL MATCH (a)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to))
		}
		if r.count <= 5000 {
			qs = append(qs, fmt.Sprintf(
				"UNWIND [1, 2] AS x MATCH (a:%s)-[:%s]->(b) RETURN count(*) AS n", r.from, r.typ))
		}
		// A WHERE equality on either end of a labeled path: the seek must
		// anchor the variable it names, whichever end the plan starts from.
		for _, end := range []struct{ v, label string }{{"a", r.from}, {"b", r.to}} {
			if ps := sch.props[end.label]; len(ps) > 0 && r.count <= 20000 {
				lit, _ := cypherLit(ps[0].val)
				qs = append(qs, fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) WHERE %s.%s = %s RETURN count(*) AS n",
					r.from, r.typ, r.to, end.v, ps[0].key, lit))
			}
		}
		// Edge-property shapes: inline equality, WHERE equality and WHERE
		// range on a typed relationship variable — these drive the
		// edge-index seek path for unlabeled anchors under pushdown.
		if len(r.props) > 0 && r.count <= 20000 {
			ps := r.props[0]
			lit, _ := cypherLit(ps.val)
			qs = append(qs,
				fmt.Sprintf("MATCH (a)-[r:%s {%s: %s}]->(b) RETURN count(*) AS n", r.typ, ps.key, lit),
				fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s = %s RETURN count(*) AS n", r.typ, ps.key, lit),
			)
			if ps.val.Kind() == graph.KindInt {
				qs = append(qs, fmt.Sprintf(
					"MATCH (a)-[r:%s]->(b) WHERE r.%s >= %d RETURN count(*) AS n", r.typ, ps.key, ps.val.Int()))
				qs = append(qs, fmt.Sprintf(
					"MATCH (b)<-[r:%s]-(a) WHERE r.%s < %d RETURN count(*) AS n", r.typ, ps.key, ps.val.Int()+1))
			}
		}
	}
	return qs
}

// asciiPrefix returns up to n leading ASCII bytes of s (stopping before any
// multi-byte rune so the prefix is always a valid query literal), or "" if
// the first byte is non-ASCII.
func asciiPrefix(s string, n int) string {
	i := 0
	for i < len(s) && i < n && s[i] < 0x80 {
		i++
	}
	return s[:i]
}

// randomQuery draws one read-only query whose estimated work is bounded, so
// a 200-query corpus stays fast even on the 43k-node Twitter graph.
func (sch *oracleSchema) randomQuery(rng *rand.Rand) string {
	for {
		if q, ok := sch.tryRandomQuery(rng); ok {
			return q
		}
	}
}

func (sch *oracleSchema) tryRandomQuery(rng *rand.Rand) (string, bool) {
	switch rng.Intn(16) {
	case 0: // label count
		l := pick(rng, sch.labels)
		return fmt.Sprintf("MATCH (a:%s) RETURN count(*) AS n", l), true
	case 1: // index-seek count (pushdown + fast path)
		l := pick(rng, sch.labels)
		if len(sch.props[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[l])
		lit, _ := cypherLit(ps.val)
		return fmt.Sprintf("MATCH (a:%s {%s: %s}) RETURN count(*) AS n", l, ps.key, lit), true
	case 2: // one-hop path count, random orientation
		r := pick(rng, sch.rels)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(*) AS n", r.from, r.typ, r.to), true
		}
		return fmt.Sprintf("MATCH (b:%s)<-[:%s]-(a:%s) RETURN count(*) AS n", r.to, r.typ, r.from), true
	case 3: // undirected expansion
		r := pick(rng, sch.rels)
		if r.count > 10000 {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s)-[:%s]-(b) RETURN count(*) AS n", r.from, r.typ), true
	case 4: // two-hop chain (types joined on the shared middle label)
		r1 := pick(rng, sch.rels)
		for _, r2 := range sch.rels {
			if r2.from == r1.to && r1.count+r2.count <= 15000 {
				return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s)-[:%s]->(c) RETURN count(*) AS n",
					r1.from, r1.typ, r1.to, r2.typ), true
			}
		}
		return "", false
	case 5: // WHERE on an integer property
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		return fmt.Sprintf("MATCH (a:%s) WHERE a.%s > %d RETURN count(a.%s) AS n",
			l, ps.key, ps.val.Int()-int64(rng.Intn(5)), ps.key), true
	case 6: // DISTINCT aggregate over a property
		r := pick(rng, sch.rels)
		if len(sch.props[r.to]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[r.to])
		return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN count(DISTINCT b.%s) AS n",
			r.from, r.typ, r.to, ps.key), true
	case 7: // non-aggregate projection (exercises the row merge path)
		r := pick(rng, sch.rels)
		if r.count > 10000 || len(sch.props[r.from]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.props[r.from])
		q := fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) RETURN a.%s AS x", r.from, r.typ, r.to, ps.key)
		if rng.Intn(2) == 0 {
			q += " ORDER BY x"
		}
		return q, true
	case 8: // cartesian product of two small labels
		la, lb := pick(rng, sch.labels), pick(rng, sch.labels)
		if sch.count[la]*sch.count[lb] > 250000 {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s), (b:%s) RETURN count(*) AS n", la, lb), true
	case 9: // cross-part bound variable (part 2 anchors on part 1's target)
		r1 := pick(rng, sch.rels)
		for _, r2 := range sch.rels {
			if r2.from == r1.to && r1.count+r2.count <= 15000 {
				return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s), (b)-[:%s]->(c) RETURN count(*) AS n",
					r1.from, r1.typ, r1.to, r2.typ), true
			}
		}
		return "", false
	case 10: // integer sum / min / max
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		fn := pick(rng, []string{"sum", "min", "max"})
		return fmt.Sprintf("MATCH (a:%s) RETURN %s(a.%s) AS n", l, fn, ps.key), true
	case 11: // grouped WITH pipeline
		r := pick(rng, sch.rels)
		if r.count > 10000 {
			return "", false
		}
		return fmt.Sprintf(
			"MATCH (a:%s)-[:%s]->(b) WITH a, count(b) AS c WHERE c > 1 RETURN count(*) AS n",
			r.from, r.typ), true
	case 12: // ordered-index range seek (one- or two-sided)
		l := pick(rng, sch.labels)
		if len(sch.intProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.intProps[l])
		v := ps.val.Int()
		switch rng.Intn(3) {
		case 0:
			op := pick(rng, []string{">", ">=", "<", "<="})
			return fmt.Sprintf("MATCH (a:%s) WHERE a.%s %s %d RETURN count(*) AS n", l, ps.key, op, v), true
		case 1:
			lo, hi := v-int64(rng.Intn(5)), v+int64(rng.Intn(5))
			return fmt.Sprintf("MATCH (a:%s) WHERE a.%s >= %d AND a.%s < %d RETURN count(*) AS n",
				l, ps.key, lo, ps.key, hi), true
		default: // range seek feeding an expansion (plan interplay)
			for _, r := range sch.rels {
				if r.from == l && r.count <= 10000 {
					return fmt.Sprintf("MATCH (a:%s)-[:%s]->(b) WHERE a.%s <= %d RETURN count(*) AS n",
						l, r.typ, ps.key, v), true
				}
			}
			return "", false
		}
	case 13: // STARTS WITH prefix seek
		l := pick(rng, sch.labels)
		if len(sch.strProps[l]) == 0 {
			return "", false
		}
		ps := pick(rng, sch.strProps[l])
		pfx := asciiPrefix(ps.val.Str(), 1+rng.Intn(3))
		if pfx == "" {
			return "", false
		}
		return fmt.Sprintf("MATCH (a:%s) WHERE a.%s STARTS WITH '%s' RETURN count(*) AS n", l, ps.key, pfx), true
	case 14: // edge-property equality seek (inline or WHERE)
		r := pick(rng, sch.rels)
		if len(r.props) == 0 || r.count > 20000 {
			return "", false
		}
		ps := pick(rng, r.props)
		lit, _ := cypherLit(ps.val)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("MATCH (a)-[r:%s {%s: %s}]->(b) RETURN count(*) AS n", r.typ, ps.key, lit), true
		}
		return fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s = %s RETURN count(*) AS n", r.typ, ps.key, lit), true
	default: // edge-property range seek
		r := pick(rng, sch.rels)
		if r.count > 20000 {
			return "", false
		}
		var ints []propSample
		for _, ps := range r.props {
			if ps.val.Kind() == graph.KindInt {
				ints = append(ints, ps)
			}
		}
		if len(ints) == 0 {
			return "", false
		}
		ps := pick(rng, ints)
		op := pick(rng, []string{">", ">=", "<", "<="})
		return fmt.Sprintf("MATCH (a)-[r:%s]->(b) WHERE r.%s %s %d RETURN count(*) AS n",
			r.typ, ps.key, op, ps.val.Int()), true
	}
}
