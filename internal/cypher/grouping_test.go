package cypher

import (
	"fmt"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// bigIntGraph holds two :T nodes whose ids differ only beyond float64's
// 53-bit mantissa, as real Twitter ids (~1.5e18) do.
func bigIntGraph() *graph.Graph {
	g := graph.New("bigint")
	g.AddNode([]string{"T"}, graph.Props{"id": graph.NewInt(9007199254740992)})
	g.AddNode([]string{"T"}, graph.Props{"id": graph.NewInt(9007199254740993)})
	return g
}

// TestBigIntQueries: ints above 2^53 are distinct values everywhere — in
// grouping, DISTINCT, equality seeks and scans, ranges, ordering and
// literal comparison — with index pushdown on and off.
func TestBigIntQueries(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{"MATCH (x:T) RETURN count(DISTINCT x.id) AS n", "2"},
		{"MATCH (x:T) WHERE x.id IS NOT NULL WITH x.id AS v, count(*) AS c WHERE c = 1 RETURN count(*) AS n", "2"},
		{"MATCH (x:T {id: 9007199254740993}) RETURN count(*) AS n", "1"},
		{"MATCH (x:T) WHERE x.id = 9007199254740993 RETURN count(*) AS n", "1"},
		{"RETURN 9007199254740993 = 9007199254740992 AS n", "false"},
		{"MATCH (x:T) WHERE x.id IN [9007199254740993, 1] RETURN count(*) AS n", "1"},
		{"MATCH (x:T) WHERE x.id > 9007199254740992 RETURN count(*) AS n", "1"},
		{"MATCH (x:T) WHERE x.id >= 9007199254740992.0 RETURN count(*) AS n", "2"},
		{"MATCH (x:T) RETURN DISTINCT x.id AS n ORDER BY n DESC LIMIT 1", "9007199254740993"},
	}
	g := bigIntGraph()
	for _, pushdown := range []bool{true, false} {
		ex := NewExecutor(g)
		ex.noSeeks = !pushdown
		for _, c := range cases {
			res, err := ex.Run(c.q, nil)
			if err != nil {
				t.Fatalf("pushdown=%v %s: %v", pushdown, c.q, err)
			}
			if got := res.Value(0, "n").String(); res.Len() != 1 || got != c.want {
				t.Errorf("pushdown=%v %s = %s (%d rows), want %s", pushdown, c.q, got, res.Len(), c.want)
			}
		}
	}
}

// operatorPipeline is a pipeline with no query around it, for driving one
// operator directly.
func operatorPipeline(g *graph.Graph) *pipeline {
	m := &matcher{g: g}
	m.ctx = newEvalCtx(g, nil, m)
	return &pipeline{ctx: m.ctx, m: m}
}

// returnItems parses `MATCH (x) RETURN <items>` into its projection items,
// resolved so that x is slot 0.
func returnItems(t *testing.T, items string) []*ReturnItem {
	t.Helper()
	q, err := Parse("MATCH (x) RETURN " + items)
	if err != nil {
		t.Fatal(err)
	}
	q.resolve()
	return q.Clauses[1].(*ReturnClause).Items
}

var discard = vstage{push: func([]Datum) error { return nil }, flush: func() error { return nil }}

// TestAggregateAllocs: a grouped count(*) allocates nothing for a row of an
// existing group and at most 4 per new group (its key, plus amortised
// growth of the index and the slabs); a count(DISTINCT) repeat is free too.
func TestAggregateAllocs(t *testing.T) {
	g := graph.New("allocs")
	const n = 2000
	rows := make([]Row, n)
	for i := range rows {
		props := graph.Props{"k": graph.NewString(fmt.Sprintf("tweet text number %d", i)), "id": graph.NewInt(int64(i) << 40)}
		rows[i] = Row{NodeDatum(g.AddNode([]string{"T"}, props))} // x's slot
	}
	for _, items := range []string{"x.k AS v, count(*) AS c", "x.id AS v, count(*) AS c", "x.k AS v, x.id AS w, count(*) AS c"} {
		p := operatorPipeline(g)
		agg := p.aggregate(returnItems(t, items), discard)
		i := 0
		if a := testing.AllocsPerRun(n-1, func() {
			if err := agg.push(rows[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}); a > 4 {
			t.Errorf("RETURN %s: %v allocations per new group, want <= 4", items, a)
		}
		if a := testing.AllocsPerRun(1000, func() {
			if err := agg.push(rows[7]); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("RETURN %s: %v allocations per repeated-key row, want 0", items, a)
		}
	}
	p := operatorPipeline(g)
	agg := p.aggregate(returnItems(t, "count(DISTINCT x.k) AS c"), discard)
	if a := testing.AllocsPerRun(1000, func() { _ = agg.push(rows[3]) }); a != 0 {
		t.Errorf("count(DISTINCT): %v allocations per repeated value, want 0", a)
	}
}

// TestDistinctAllocs: DISTINCT drops a repeated row without allocating.
func TestDistinctAllocs(t *testing.T) {
	g := socialGraph()
	p := operatorPipeline(g)
	d := p.distinct(discard)
	vals := []Datum{NodeDatum(g.Node(0)), ValDatum(graph.NewString("hello world")), ValDatum(graph.NewFloat(1.5))}
	if a := testing.AllocsPerRun(1000, func() { _ = d.push(vals) }); a != 0 {
		t.Errorf("DISTINCT: %v allocations per repeated row, want 0", a)
	}
}

// TestAggregateMultiColumnKeys: the columns of a grouping key cannot run
// together, so ("a|b", "c") and ("a", "b|c") are two groups.
func TestAggregateMultiColumnKeys(t *testing.T) {
	g := graph.New("keys")
	g.AddNode([]string{"T"}, graph.Props{"a": graph.NewString("a|V2:b"), "b": graph.NewString("c")})
	g.AddNode([]string{"T"}, graph.Props{"a": graph.NewString("a"), "b": graph.NewString("b|V2:c")})
	res := run(t, g, "MATCH (x:T) WITH x.a AS a, x.b AS b, count(*) AS c RETURN count(*) AS n")
	if n := res.Int(0, "n"); n != 2 {
		t.Errorf("%d groups, want 2", n)
	}
	res = run(t, g, "MATCH (x:T) RETURN DISTINCT x.a AS a, x.b AS b")
	if res.Len() != 2 {
		t.Errorf("DISTINCT kept %d rows, want 2", res.Len())
	}
}
