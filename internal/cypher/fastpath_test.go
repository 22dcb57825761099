package cypher

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// equivalence queries run with and without index pushdown: a seek must be
// observably identical to the scan it replaces.
var equivQueries = []string{
	`MATCH (u:User) RETURN count(*) AS n`,
	`MATCH (u:User {verified: true}) RETURN count(*) AS n`,
	`MATCH (u:User {name: 'alice'}) RETURN count(*) AS n`,
	`MATCH (u:User {name: 'nobody'}) RETURN count(*) AS n`,
	`MATCH (t:Tweet {createdAt: 1000}) RETURN count(*) AS n`,
	`MATCH (t:Tweet {createdAt: 1000.0}) RETURN count(*) AS n`, // cross-numeric key
	`MATCH (u:User) WHERE u.id > 1 RETURN count(*) AS n`,
	`MATCH (u:User {verified: false})-[:FOLLOWS]->(v:User) RETURN count(*) AS n`,
	`MATCH (u:User)-[:POSTS]->(t:Tweet) RETURN count(t.text) AS n`,
	`MATCH (u:User)-[:FOLLOWS]->(v:User) RETURN count(DISTINCT v) AS n`,
	`MATCH (a)-[:FOLLOWS*1..2]->(b) RETURN count(*) AS n`,
	`MATCH (u:User) RETURN u.name AS name, count(*) AS n ORDER BY name`,
	`MATCH (u:User {id: 1})-[:POSTS]->(t) RETURN t.id AS id ORDER BY id`,
}

func resultSignature(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Columns)
	for _, row := range res.Rows {
		for _, d := range row {
			fmt.Fprintf(&b, "%s|", d.Scalar().String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFastPathEquivalence cross-checks index pushdown against the plain
// scan engine on the same graph.
func TestFastPathEquivalence(t *testing.T) {
	g := socialGraph()
	base := scanExecutor(g)
	ex := NewExecutor(g)
	for _, q := range equivQueries {
		want, err := base.Run(q, nil)
		if err != nil {
			t.Fatalf("base %q: %v", q, err)
		}
		got, err := ex.Run(q, nil)
		if err != nil {
			t.Fatalf("pushdown %q: %v", q, err)
		}
		if resultSignature(got) != resultSignature(want) {
			t.Errorf("pushdown %q:\n got %q\nwant %q", q, resultSignature(got), resultSignature(want))
		}
	}
}

// TestAggregateZeroMatches pins the empty-group contract: a bare
// aggregate over zero matches still yields exactly one row.
func TestAggregateZeroMatches(t *testing.T) {
	res := run(t, socialGraph(), `MATCH (x:Nope) RETURN count(*) AS n`)
	if res.Len() != 1 || res.FirstInt("n") != 0 {
		t.Fatalf("zero-match count: rows=%d n=%d", res.Len(), res.FirstInt("n"))
	}
}

func TestPlanCacheCounters(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	const q = `MATCH (u:User) RETURN count(*) AS n`

	res, err := ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.PlanCacheHit {
		t.Error("first run should be a cache miss")
	}
	res, err = ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exec.PlanCacheHit {
		t.Error("second run should be a cache hit")
	}
	st := ex.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 entries=1", st)
	}
	if _, err := ex.Run(`MATCH (`, nil); err == nil {
		t.Error("parse error expected")
	}
	if st := ex.PlanCacheStats(); st.Entries != 1 {
		t.Errorf("parse failures must not be cached: %+v", st)
	}
}

// TestPlanCacheConcurrent hammers one executor from many goroutines; run
// under -race this verifies the cache and shared-AST execution are safe.
func TestPlanCacheConcurrent(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	queries := []string{
		`MATCH (u:User) RETURN count(*) AS n`,
		`MATCH (u:User {verified: true}) RETURN count(*) AS n`,
		`MATCH (u:User)-[:FOLLOWS]->(v) RETURN count(*) AS n`,
		`MATCH (t:Tweet) RETURN count(t.text) AS n`,
	}
	want := make([]int64, len(queries))
	for i, q := range queries {
		res, err := ex.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.FirstInt("n")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := iter % len(queries)
				res, err := ex.Run(queries[i], nil)
				if err != nil {
					errs <- err
					return
				}
				if got := res.FirstInt("n"); got != want[i] {
					errs <- fmt.Errorf("%q: got %d want %d", queries[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPushdownUsesIndexAndInvalidates(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	const q = `MATCH (u:User {name: 'alice'}) RETURN count(*) AS n`

	res, err := ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.IndexSeeks == 0 {
		t.Fatalf("expected an index seek, stats: %+v", res.Exec)
	}
	if res.FirstInt("n") != 1 {
		t.Fatalf("n = %d, want 1", res.FirstInt("n"))
	}
	builds0, _, _ := g.PropIndexStats()
	if builds0 == 0 {
		t.Fatal("expected a posting map build")
	}

	// Mutate: rename bob to alice. The index must be invalidated, not stale.
	var bob graph.ID
	for _, n := range g.LabelNodes("User") {
		if n.Prop("name").Equal(graph.NewString("bob")) {
			bob = n.ID
		}
	}
	if err := g.SetNodeProp(bob, "name", graph.NewString("alice")); err != nil {
		t.Fatal(err)
	}
	res, err = ex.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstInt("n") != 2 {
		t.Fatalf("after rename n = %d, want 2 (stale index?)", res.FirstInt("n"))
	}
	builds1, _, _ := g.PropIndexStats()
	if builds1 <= builds0 {
		t.Errorf("expected a rebuild after invalidation: builds %d -> %d", builds0, builds1)
	}
}

func TestExecStatsTimings(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) WHERE u.verified RETURN u.name AS name ORDER BY name`)
	if len(res.Exec.Clauses) != 2 {
		t.Fatalf("clause timings = %+v, want Match+Return", res.Exec.Clauses)
	}
	if res.Exec.Clauses[0].Clause != "Match" || res.Exec.Clauses[1].Clause != "Return" {
		t.Errorf("clause names = %+v", res.Exec.Clauses)
	}
	// Each Duration runs to its operator's flush, and RETURN flushes last.
	if res.Exec.Clauses[1].Duration < res.Exec.Clauses[0].Duration {
		t.Errorf("clause timings not cumulative: %+v", res.Exec.Clauses)
	}
	if res.Exec.RowsScanned == 0 {
		t.Errorf("RowsScanned not tracked: %+v", res.Exec)
	}
	if s := res.Exec.String(); !strings.Contains(s, "rows scanned") {
		t.Errorf("ExecStats.String() = %q", s)
	}
}

// TestErrorPathKeepsStats: a query that fails mid-scan still returns a
// stats-bearing Result — row and aggregate queries alike — so
// `profile` after a failure shows the work done before the error.
func TestErrorPathKeepsStats(t *testing.T) {
	ex := NewExecutor(chainGraph(100)) // the first Person has idx 0
	for _, q := range []string{
		`MATCH (p:Person) WHERE 1 / p.idx >= 0 RETURN p.idx`,
		`MATCH (p:Person) WHERE 1 / p.idx >= 0 RETURN count(*) AS n`,
	} {
		res, err := ex.Run(q, nil)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%q: err = %v, want division by zero", q, err)
		}
		if res == nil || res.Exec.RowsScanned == 0 {
			t.Errorf("%q: error path lost the execution stats: %+v", q, res)
		}
	}
}

// TestIntErrStrict is the headline regression: a count column that is
// missing, NULL, or non-numeric must error rather than read as zero.
func TestIntErrStrict(t *testing.T) {
	g := socialGraph()

	res := run(t, g, `MATCH (u:User) RETURN count(*) AS support`)
	if _, err := res.IntErr(0, "n"); err == nil {
		t.Error("mismatched alias: want error, got none")
	} else if !strings.Contains(err.Error(), `no column "n"`) {
		t.Errorf("alias error = %v", err)
	}
	if got := res.Int(0, "n"); got != 0 {
		t.Errorf("lenient Int on missing column = %d, want 0", got)
	}
	if n, err := res.IntErr(0, "support"); err != nil || n != 3 {
		t.Errorf("IntErr(support) = %d, %v", n, err)
	}

	res = run(t, g, `MATCH (u:User {id: 3}) RETURN u.verified AS n`)
	if _, err := res.IntErr(0, "n"); err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Errorf("NULL column: err = %v", err)
	}

	res = run(t, g, `MATCH (u:User {id: 1}) RETURN u.name AS n`)
	if _, err := res.IntErr(0, "n"); err == nil {
		t.Error("string column: want error, got none")
	}

	res = run(t, g, `MATCH (u:User) RETURN count(*) AS n`)
	if _, err := res.IntErr(3, "n"); err == nil {
		t.Error("row out of range: want error, got none")
	}
}
