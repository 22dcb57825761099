package cypher

// Differential oracle for the cost-reordered executor: every query in a
// corpus (a fixed schema-derived set plus seeded randomized queries) runs
// under the no-reorder, pushdown-on reference configuration and under the
// other three points of the {reorder on/off} x {index pushdown on/off}
// grid, and the results must agree. The *-nopush arms turn every seek off
// (equality, IN, range, prefix, edge), so each seek kind is compared with
// a pure scan. The no-reorder configuration must reproduce the reference
// row order exactly (seeks return candidates in scan-equivalent order);
// reorder-on configurations are compared as canonically sorted row
// multisets, since part reordering is allowed to permute unordered
// results. Metamorphic arms then rewrite each query into forms that must
// give the reference rows in the reference order on the reference
// executor itself (see metamorphicArms), and the count arm checks the
// Aggregate operator against the row stream: for every `MATCH … RETURN
// <items>` query, `RETURN count(*)` over the same MATCH equals the number
// of reference rows (see countQuery). Queries are checked from a worker
// pool over shared executors, so the oracle also exercises the engine's
// only parallelism: concurrent serial queries on one Executor.
//
// Environment knobs (all optional):
//
//	GRAPHRULES_ORACLE_SEED      generator seed (default 1)
//	GRAPHRULES_ORACLE_RANDOM    randomized queries per dataset (default 60;
//	                            CI's oracle job runs the full 200)
//	GRAPHRULES_ORACLE_ARTIFACT  file to append failing query reproductions to

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
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
	name     string
	reorder  bool
	pushdown bool // every index seek (reference runs with it ON)
}

// oracleRef is the reference configuration: parts run as written, index
// pushdown on.
var oracleRef = oracleConfig{name: "noreorder", reorder: false, pushdown: true}

// oracleGrid is every configuration compared against oracleRef: the
// reorder x index-pushdown cross product minus the reference itself.
var oracleGrid = []oracleConfig{
	{name: "noreorder-nopush", reorder: false, pushdown: false},
	{name: "reorder", reorder: true, pushdown: true},
	{name: "reorder-nopush", reorder: true, pushdown: false},
}

func newOracleExecutor(g *graph.Graph, cfg oracleConfig) *Executor {
	return NewExecutor(g, WithReorder(cfg.reorder), WithIndexPushdown(cfg.pushdown))
}

// oracleRun executes one query and renders every result row to a canonical
// string (column order is part of the rendering, row order is preserved).
func oracleRun(ex *Executor, src string) (rows []string, errStr string) {
	res, err := ex.Run(src, nil)
	if err != nil {
		return nil, err.Error()
	}
	return renderRows(res), ""
}

// renderRows canonicalizes a result's rows, preserving row order.
func renderRows(res *Result) []string {
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.Hashable())
		}
		rows = append(rows, b.String())
	}
	return rows
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
			grid := make([]*Executor, len(oracleGrid))
			for i, cfg := range oracleGrid {
				grid[i] = newOracleExecutor(g, cfg)
			}

			// Queries are independent and every executor is safe for
			// concurrent use, so comparisons run on a worker pool; failures
			// are reported with the reproducing seed.
			var (
				wg   sync.WaitGroup
				next atomic.Int64
				mu   sync.Mutex
			)
			checkQuery := func(q string) {
				fail := func(cfg, kind, detail string) {
					mu.Lock()
					defer mu.Unlock()
					writeOracleArtifact(name, seed, cfg, q, detail)
					t.Errorf("%s under %s (reproduce with GRAPHRULES_ORACLE_SEED=%d):\nquery: %s\n%s",
						kind, cfg, seed, q, detail)
				}
				refRows, refErr := oracleRun(ref, q)
				refSorted := sortedCopy(refRows)
				for i, cfg := range oracleGrid {
					gotRows, gotErr := oracleRun(grid[i], q)
					if (refErr != "") != (gotErr != "") {
						fail(cfg.name, "error divergence", fmt.Sprintf("reference err=%q, %s err=%q", refErr, cfg.name, gotErr))
						return
					}
					if refErr != "" {
						continue // both failed; nothing further to compare
					}
					if !cfg.reorder {
						// Same written part order: row order must be
						// byte-identical to the reference.
						if !rowsEqual(refRows, gotRows) {
							fail(cfg.name, "row-order divergence", fmt.Sprintf("reference order %v\n%s order %v", refRows, cfg.name, gotRows))
							return
						}
					} else if !rowsEqual(refSorted, sortedCopy(gotRows)) {
						fail(cfg.name, "result-set divergence", fmt.Sprintf("reference sorted %v\n%s sorted %v", refSorted, cfg.name, sortedCopy(gotRows)))
						return
					}
				}
				if refErr != "" {
					return
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
						checkQuery(corpus[i])
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
// through a `WITH *` projection, which rebinds each variable unchanged.
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
	q, err := Parse(src)
	if err != nil || len(q.Clauses) != 2 {
		return "", false
	}
	if mc, ok := q.Clauses[0].(*MatchClause); !ok || mc.Optional {
		return "", false
	}
	rc, ok := q.Clauses[1].(*ReturnClause)
	if !ok || rc.Distinct || rc.Skip != nil || rc.Limit != nil {
		return "", false
	}
	for _, it := range rc.Items {
		if ContainsAggregate(it.Expr) {
			return "", false
		}
	}
	q.Clauses[1] = &ReturnClause{Projection: Projection{Items: []*ReturnItem{
		{Expr: &FuncCall{Name: "count", Star: true}, Alias: "n"}}}}
	return q.String(), true
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
		default: // range seek feeding an expansion (reorder interplay)
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
