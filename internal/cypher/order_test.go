package cypher

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/rules"
)

// hashExecutor returns an executor that ignores every key-order walk, so
// its grouping queries scan and group through the hash table.
func hashExecutor(g *graph.Graph, opts ...Option) *Executor {
	ex := NewExecutor(g, opts...)
	ex.hashGroups = true
	return ex
}

// orderedKeysGraph holds :T nodes whose k values are the equivalences a
// key-order walk must group as the hash table does: 1 and 1.0 are one key,
// both NaNs one, 2^53 and 2.0^53 one, together with float64(2^53+1), which
// rounds to 2^53, while the int 2^53+1 is a key of its own; "1", true and a
// list are kinds apart. Keys repeat in scrambled insertion order, and one
// node has no k.
func orderedKeysGraph() *graph.Graph {
	big := int64(1<<53 + 1)
	vals := []graph.Value{
		graph.NewInt(1), graph.NewString("1"), graph.NewFloat(math.NaN()), graph.NewInt(1 << 53),
		graph.NewList(graph.NewInt(1), graph.NewInt(2)), graph.NewFloat(1.0), graph.NewBool(true),
		graph.NewInt(big), graph.NewFloat(1 << 53), graph.NewFloat(math.NaN()), graph.NewFloat(float64(big)),
		graph.NewInt(7),
	}
	g := graph.New("keys")
	for _, v := range vals {
		g.AddNode([]string{"T"}, graph.Props{"k": v})
	}
	g.AddNode([]string{"T"}, graph.Props{"other": graph.NewInt(1)})
	return g
}

// TestOrderedGroupingFixture: over keys that differ only in kind or beyond
// float64's mantissa, ordered grouping gives the hash path's rows as a
// multiset, in ascending key order, with seeks on and off; and the uniqueness rule's counts equal its native witness.
func TestOrderedGroupingFixture(t *testing.T) {
	g := orderedKeysGraph()
	queries := []string{
		"MATCH (x:T) WHERE x.k IS NOT NULL RETURN x.k AS v, count(*) AS c",
		"MATCH (x:T) WHERE x.k IS NOT NULL WITH x.k AS v, count(*) AS c RETURN v, c",
		"MATCH (x:T) WHERE x.k IS NOT NULL RETURN DISTINCT x.k AS v",
		"MATCH (x:T) WHERE x.k IS NOT NULL WITH x.k AS v, collect(id(x)) AS ids, count(*) + 1 AS c1 RETURN v, ids, c1",
	}
	for _, q := range queries {
		want, wantErr := oracleRun(hashExecutor(g), q, nil)
		var ref []string
		for _, cfg := range append([]oracleConfig{oracleRef}, oracleGrid...) {
			ex := newOracleExecutor(g, cfg)
			got, err := oracleRun(ex, q, nil)
			if err != "" || wantErr != "" {
				t.Fatalf("%s under %s: err %q, hash err %q", q, cfg.name, err, wantErr)
			}
			if !rowsEqual(sortedCopy(got), sortedCopy(want)) {
				t.Errorf("%s under %s:\nordered %q\nhash    %q", q, cfg.name, got, want)
			}
			if ref == nil {
				ref = got
			} else if !rowsEqual(got, ref) {
				t.Errorf("%s: %s row order %q differs from %q", q, cfg.name, got, ref)
			}
			plan, _ := ex.Explain(q)
			if !strings.Contains(plan, "NodeByIndexOrder(x:T.k IS NOT NULL)") || !strings.Contains(plan, "[ordered by x.k]") {
				t.Errorf("%s under %s: plan shows no key-order walk:\n%s", q, cfg.name, plan)
			}
		}
		res, err := NewExecutor(g).Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < res.Len(); i++ {
			if a, b := res.Rows[i-1][0].Val.SortKey(), res.Rows[i][0].Val.SortKey(); a >= b {
				t.Errorf("%s: row %d key %q not above row %d key %q", q, i, b, i-1, a)
			}
		}
	}
	if plan, _ := hashExecutor(g).Explain(queries[0]); strings.Contains(plan, "NodeByIndexOrder") || strings.Contains(plan, "ordered by") {
		t.Errorf("the hash hook still plans a key-order walk:\n%s", plan)
	}

	r := &rules.UniqueProperty{Label: "T", Key: "k"}
	native, err := r.CountsNative(g)
	if err != nil {
		t.Fatal(err)
	}
	if native != (rules.Counts{Support: 5, Body: 12, HeadTotal: 13}) {
		t.Errorf("native counts %+v, want support 5, body 12, head 13", native)
	}
	qs := r.Queries()
	for _, ex := range []*Executor{NewExecutor(g), hashExecutor(g)} {
		var got rules.Counts
		for _, c := range []struct {
			q   string
			dst *int64
		}{{qs.Support, &got.Support}, {qs.Body, &got.Body}, {qs.HeadTotal, &got.HeadTotal}} {
			res, err := ex.Run(c.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			*c.dst = res.FirstInt("n")
		}
		if got != native {
			t.Errorf("hash=%v: query counts %+v, native %+v", ex.hashGroups, got, native)
		}
	}
}

// TestKeyOrderShapes: only the shape keyOrder names walks in key order.
func TestKeyOrderShapes(t *testing.T) {
	g := orderedKeysGraph()
	ex := NewExecutor(g)
	for q, ordered := range map[string]bool{
		"MATCH (x:T) WHERE x.k IS NOT NULL WITH x.k AS v, count(*) AS c WHERE c = 1 RETURN count(*) AS n": true,
		"MATCH (x:T)-[]->(y) WHERE x.k IS NOT NULL RETURN x.k AS v, count(y) AS c":                        true,
		"MATCH (x:T) WHERE x.k IS NOT NULL RETURN x.k AS v":                                               false, // no grouping
		"MATCH (x:T) RETURN x.k AS v, count(*) AS c":                                                      false, // nulls arrive
		"MATCH (x:T) WHERE x.k IS NOT NULL AND x.k > 1 RETURN x.k AS v, count(*) AS c":                    false, // a seek may apply
		"MATCH (x:T) WHERE x.k IS NOT NULL RETURN x.k AS v, x.other AS w, count(*) AS c":                  false, // two keys
		"MATCH (x:T) WHERE x.k IS NOT NULL OR x.other = 1 RETURN x.k AS v, count(*) AS c":                 false, // not a conjunct
		"MATCH (x:T), (y:T) WHERE x.k IS NOT NULL RETURN x.k AS v, count(*) AS c":                         false, // two parts
		"OPTIONAL MATCH (x:T) WHERE x.k IS NOT NULL RETURN x.k AS v, count(*) AS c":                       false,
		"MATCH (x:T) WHERE x.k IS NOT NULL WITH * RETURN x.k AS v, count(*) AS c":                         false, // not next
		"UNWIND [1, 2] AS i MATCH (x:T) WHERE x.k IS NOT NULL RETURN x.k AS v, count(*) AS c":             false, // walked twice
	} {
		plan, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(plan, "NodeByIndexOrder"); got != ordered {
			t.Errorf("%s: key-order walk %v, want %v\n%s", q, got, ordered, plan)
		}
		got, gotErr := oracleRun(ex, q, nil)
		want, wantErr := oracleRun(hashExecutor(g), q, nil)
		if gotErr != wantErr || !rowsEqual(sortedCopy(got), sortedCopy(want)) {
			t.Errorf("%s:\nordered %q %s\nhash    %q %s", q, got, gotErr, want, wantErr)
		}
	}
}

// TestOrderedAggregateAllocs: run-length grouping allocates nothing per
// row, at a group boundary neither, for grouped count(*) and for DISTINCT
// (a run-length Aggregate without aggregates) into a transient downstream.
func TestOrderedAggregateAllocs(t *testing.T) {
	g := graph.New("allocs")
	const n = 2000
	rows := make([]Row, n)
	for i := range rows {
		k := graph.NewString(fmt.Sprintf("tweet text number %06d", i))
		rows[i] = Row{NodeDatum(g.AddNode([]string{"T"}, graph.Props{"k": k}))} // x's slot
	}
	p := operatorPipeline(g)
	agg := p.aggregateBy(returnItems(t, "x.k AS v, count(*) AS c"), discard, true, true)
	i := 0
	if a := testing.AllocsPerRun(n-1, func() {
		if err := agg.push(rows[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("grouped count(*): %v allocations per row closing a group, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _ = agg.push(rows[n-1]) }); a != 0 {
		t.Errorf("grouped count(*): %v allocations per repeated-key row, want 0", a)
	}
	distinct := p.aggregateBy(returnItems(t, "x.k AS v"), discard, true, true)
	i = 0
	if a := testing.AllocsPerRun(n-1, func() { _ = distinct.push(rows[i]); i++ }); a != 0 {
		t.Errorf("DISTINCT: %v allocations per new row, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { _ = distinct.push(rows[n-1]) }); a != 0 {
		t.Errorf("DISTINCT: %v allocations per repeated row, want 0", a)
	}
}

// TestOrderedGroupingConcurrent: goroutines sharing one Executor run the
// uniqueness query over one lazily built key-order posting, and each gets
// the native count.
func TestOrderedGroupingConcurrent(t *testing.T) {
	g := graph.New("shared")
	for i := 0; i < 3000; i++ {
		g.AddNode([]string{"T"}, graph.Props{"k": graph.NewInt(int64(i * 7 % 1999))})
	}
	r := &rules.UniqueProperty{Label: "T", Key: "k"}
	want, err := r.CountsNative(g)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := ex.Run(r.Queries().Support, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if n := res.FirstInt("n"); n != want.Support {
					t.Errorf("support %d, want %d", n, want.Support)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnchorRank pins the rule-based plan (plan.go) on Twitter seed 42 by
// rows and candidates scanned: each spelling runs from the end and the
// part its clause anchors best, and ties keep the written order.
func TestAnchorRank(t *testing.T) {
	gen, err := datasets.ByName("Twitter")
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(gen(datasets.Options{Seed: 42, ViolationRate: 0.03}))
	for _, c := range []struct {
		q       string
		n       int64
		scanned int
		bound   string // the variable a later part anchors on, "" for none
	}{
		// Labels at both ends tie: the chain runs as written, from Hashtag.
		{"MATCH (h:Hashtag)<-[:TAGS]-(t:Tweet)<-[:POSTS]-(u:User) RETURN count(*) AS n", 2502, 10503, ""},
		// A label at the far end beats none.
		{"MATCH (a)<-[r:POSTS]-(b:User) RETURN count(*) AS n", 29990, 40990, ""},
		// A point seek at the far end beats a label.
		{"MATCH (u:User)-[:POSTS]->(t:Tweet {id: 101234}) RETURN count(*) AS n", 1, 4, ""},
		// A bound endpoint beats a label, whichever part binds it first.
		{"MATCH (b)-[:ABOUT]->(c), (a:Tweet)-[:RETWEETS]->(b:Tweet) RETURN count(*) AS n", 47, 49750, "b"},
		{"MATCH (t:Tweet)-[:ABOUT]->(c:Topic), (u:User)-[:POSTS]->(t) RETURN count(*) AS n", 200, 49750, "t"},
	} {
		res, err := ex.Run(c.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.FirstInt("n"); n != c.n || res.Exec.RowsScanned != c.scanned {
			t.Errorf("%s: count %d scanning %d candidates, want %d scanning %d", c.q, n, res.Exec.RowsScanned, c.n, c.scanned)
		}
		plan, err := ex.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if c.bound != "" && !strings.Contains(plan, "AnchorOnBound("+c.bound+")") {
			t.Errorf("%s: plan does not anchor on %s:\n%s", c.q, c.bound, plan)
		}
	}
}
