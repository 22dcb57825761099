package cypher

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

// chainGraph builds n Person nodes {idx: 0..n-1} linked by NEXT edges in
// index order, with a Tag node every tenth person. Insertion order is the
// serial scan order, so row-order regressions are easy to spot.
func chainGraph(n int) *graph.Graph {
	g := graph.New("chain")
	var prev *graph.Node
	for i := 0; i < n; i++ {
		p := g.AddNode([]string{"Person"}, graph.Props{"idx": graph.NewInt(int64(i))})
		if prev != nil {
			g.MustAddEdge(prev.ID, p.ID, []string{"NEXT"}, nil)
		}
		if i%10 == 0 {
			tag := g.AddNode([]string{"Tag"}, graph.Props{"decade": graph.NewInt(int64(i / 10))})
			g.MustAddEdge(p.ID, tag.ID, []string{"TAGGED"}, nil)
		}
		prev = p
	}
	return g
}

// asExhausted unwraps err to a *ResourceExhaustedError or fails the test.
func asExhausted(t *testing.T, err error) *ResourceExhaustedError {
	t.Helper()
	var re *ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceExhaustedError, got %T: %v", err, err)
	}
	return re
}

func TestMaxRowsKillSerial(t *testing.T) {
	g := chainGraph(200)
	ex := NewExecutor(g, WithMaxRows(10))
	_, err := ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "rows" || re.Limit != 10 {
		t.Fatalf("resource=%q limit=%d, want rows/10", re.Resource, re.Limit)
	}
	if re.Used <= re.Limit {
		t.Fatalf("Used=%d should exceed Limit=%d", re.Used, re.Limit)
	}
	if !re.ResourceExhausted() {
		t.Fatal("ResourceExhausted() must report true")
	}
}

// TestMaxRowsKillConcurrentWithPartialStats: budgets are per query, not
// per executor. Eight goroutines drive the same over-budget serial query
// through one shared Executor; each must be killed at exactly its own 26th
// row (a shared counter would kill later queries early and report a larger
// Used), and the partial ExecStats stamped into each error at the
// ExecuteCtx boundary must describe that query's scan.
func TestMaxRowsKillConcurrentWithPartialStats(t *testing.T) {
	g := chainGraph(500)
	ex := NewExecutor(g, WithMaxRows(25))
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		re := asExhausted(t, err)
		if re.Resource != "rows" || re.Used != 26 {
			t.Errorf("query %d: resource=%q used=%d, want rows/26", i, re.Resource, re.Used)
		}
		if re.Stats.RowsScanned == 0 {
			t.Errorf("query %d: partial stats missing scan work: %+v", i, re.Stats)
		}
	}
}

func TestMemoryBudgetKill(t *testing.T) {
	g := chainGraph(300)
	ex := NewExecutor(g, WithMemoryBudget(512))
	_, err := ex.Run(`MATCH (p:Person) RETURN p.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "memory" || re.Limit != 512 {
		t.Fatalf("resource=%q limit=%d, want memory/512", re.Resource, re.Limit)
	}
}

func TestMemoryBudgetKillCollect(t *testing.T) {
	// The collect() aggregate charges per retained element, so an unbounded
	// collect dies on the memory budget even though it materializes few rows.
	g := chainGraph(300)
	ex := NewExecutor(g, WithMemoryBudget(2048))
	_, err := ex.Run(`MATCH (p:Person) RETURN collect(p.idx) AS xs`, nil)
	re := asExhausted(t, err)
	if re.Resource != "memory" {
		t.Fatalf("resource=%q, want memory", re.Resource)
	}
}

func TestUnwindChargesRowBudget(t *testing.T) {
	g := graph.New("tiny")
	g.AddNode([]string{"Person"}, nil)
	ex := NewExecutor(g, WithMaxRows(50))
	_, err := ex.Run(`UNWIND range(0, 1000) AS x RETURN x`, nil)
	re := asExhausted(t, err)
	if re.Resource != "rows" {
		t.Fatalf("resource=%q, want rows", re.Resource)
	}
}

func TestQueryDeadlineKill(t *testing.T) {
	g := chainGraph(2000)
	ex := NewExecutor(g, WithQueryDeadline(time.Nanosecond))
	_, err := ex.Run(`MATCH (a:Person)-[:NEXT]->(b:Person) RETURN a.idx, b.idx`, nil)
	re := asExhausted(t, err)
	if re.Resource != "deadline" {
		t.Fatalf("resource=%q, want deadline", re.Resource)
	}
	if re.Used < re.Limit {
		t.Fatalf("Used=%d below Limit=%d", re.Used, re.Limit)
	}
}

// nestedUnwindCount counts a 10^12-row product built by UNWIND alone: no
// row is kept or emitted until its one result row, so only the deadline or
// cancellation can stop it.
const nestedUnwindCount = `UNWIND range(1, 10000) AS a UNWIND range(1, 10000) AS b UNWIND range(1, 10000) AS c RETURN count(*)`

// TestNestedUnwindDeadlineKill: UNWIND polls the deadline per element, so a
// counting product with no matcher scan still dies on WithQueryDeadline.
func TestNestedUnwindDeadlineKill(t *testing.T) {
	ex := NewExecutor(graph.New("empty"), WithQueryDeadline(20*time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := ex.Run(nestedUnwindCount, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if re := asExhausted(t, err); re.Resource != "deadline" {
			t.Fatalf("resource=%q, want deadline", re.Resource)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested UNWIND count(*) still running 10s past a 20ms deadline")
	}
}

// TestUnderBudgetIdentity: generous budgets must never change results —
// governed output is byte-identical to ungoverned.
func TestUnderBudgetIdentity(t *testing.T) {
	g := chainGraph(200)
	queries := []string{
		`MATCH (p:Person) RETURN p.idx`,
		`MATCH (p:Person) WHERE p.idx > 57 RETURN p.idx`,
		`MATCH (p:Person) OPTIONAL MATCH (p)-[:TAGGED]->(t:Tag) RETURN p.idx, t.decade`,
		`MATCH (p:Person) RETURN collect(p.idx) AS xs`,
		`UNWIND range(0, 20) AS x RETURN x`,
	}
	plain := NewExecutor(g)
	governed := NewExecutor(g,
		WithMaxRows(1_000_000),
		WithMemoryBudget(1<<30),
		WithQueryDeadline(time.Hour))
	for _, q := range queries {
		want, wantErr := oracleRun(plain, q, nil)
		got, gotErr := oracleRun(governed, q, nil)
		if wantErr != gotErr {
			t.Fatalf("%q: err %q vs %q", q, wantErr, gotErr)
		}
		if !rowsEqual(want, got) {
			t.Errorf("%q: governed output diverges\nplain:    %v\ngoverned: %v", q, want, got)
		}
	}
}

// TestPanicRecoveredSerial: an evaluator panic surfaces as a *PanicError
// with the panic value and stack, not a process crash.
func TestPanicRecoveredSerial(t *testing.T) {
	testFuncs = map[string]func(d Datum) (Datum, error){
		"detonate": func(d Datum) (Datum, error) { panic("boom at " + d.Display()) },
	}
	defer func() { testFuncs = nil }()

	g := chainGraph(50)
	ex := NewExecutor(g)
	_, err := ex.Run(`MATCH (p:Person) RETURN detonate(p.idx)`, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Stack == "" {
		t.Fatal("PanicError must carry the stack")
	}
}

// TestPanicContainedConcurrent: a panic in one query is contained at its
// own ExecuteCtx boundary. Eight goroutines share one Executor; the query
// whose WHERE detonates fails with a *PanicError, the seven healthy queries
// running beside it complete normally, and the executor stays usable
// afterwards.
func TestPanicContainedConcurrent(t *testing.T) {
	testFuncs = map[string]func(d Datum) (Datum, error){
		"fuse": func(d Datum) (Datum, error) {
			if d.Val.Kind() == graph.KindInt && d.Val.Int() == 137 {
				panic("detonation mid-scan")
			}
			return d, nil
		},
	}
	defer func() { testFuncs = nil }()

	g := chainGraph(300)
	ex := NewExecutor(g)
	const bomb = 3 // index of the goroutine that runs the detonating query
	results := make([]*Result, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := `MATCH (p:Person) WHERE fuse(p.idx) >= 0 AND p.idx < 100 RETURN p.idx`
			if i == bomb {
				q = `MATCH (p:Person) WHERE fuse(p.idx) >= 0 RETURN p.idx`
			}
			results[i], errs[i] = ex.Run(q, nil)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if i == bomb {
			var pe *PanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("want *PanicError, got %T: %v", errs[i], errs[i])
			}
			if pe.Stack == "" {
				t.Error("PanicError must carry the stack")
			}
			continue
		}
		if errs[i] != nil || len(results[i].Rows) != 100 {
			t.Errorf("healthy query %d beside the panic: rows=%v err=%v", i, results[i], errs[i])
		}
	}

	// The recovered executor keeps working.
	res, err := ex.Run(`MATCH (p:Person) WHERE p.idx < 3 RETURN p.idx`, nil)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("executor unusable after recovered panic: rows=%v err=%v", res, err)
	}
}

// BenchmarkGovernedMatch measures governor overhead on the hot scan path:
// the same two-hop query ungoverned vs under (never-hit) budgets.
func BenchmarkGovernedMatch(b *testing.B) {
	g := chainGraph(2000)
	q := `MATCH (a:Person)-[:NEXT]->(b:Person) WHERE a.idx >= 0 RETURN a.idx, b.idx`
	run := func(b *testing.B, ex *Executor) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ungoverned", func(b *testing.B) {
		run(b, NewExecutor(g))
	})
	b.Run("governed", func(b *testing.B) {
		run(b, NewExecutor(g,
			WithMaxRows(10_000_000), WithMemoryBudget(1<<40), WithQueryDeadline(time.Hour)))
	})
}

// TestBudgetedOracle extends the differential oracle with resource budgets:
// under generous budgets runs with and without index seeks must stay
// byte-identical to the ungoverned reference, and under starvation budgets every run must either still
// match the reference exactly or die with the typed budget error — a
// budget kill is never allowed to degrade into a silently wrong answer.
func TestBudgetedOracle(t *testing.T) {
	gen, err := datasets.ByName(datasets.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	g := gen(datasets.Options{Seed: 42, ViolationRate: 0.03})
	sch := newOracleSchema(g)
	rng := rand.New(rand.NewSource(7))
	corpus := sch.fixedCorpus()
	for i := 0; i < 15; i++ {
		corpus = append(corpus, sch.randomQuery(rng))
	}

	// Row order must be byte-identical to the reference: the budget
	// comparison is exact, not just set-equal.
	grid := append([]oracleConfig{oracleRef}, oracleGrid...)

	ref := newOracleExecutor(g, oracleRef)
	generous := func(cfg oracleConfig) *Executor {
		return newOracleExecutor(g, cfg,
			WithMaxRows(1<<20), WithMemoryBudget(1<<30), WithQueryDeadline(time.Minute))
	}
	starved := func(cfg oracleConfig) *Executor {
		return newOracleExecutor(g, cfg, WithMaxRows(2))
	}

	for _, q := range corpus {
		refRows, refErr := oracleRun(ref, q, nil)
		for _, cfg := range grid {
			gotRows, gotErr := oracleRun(generous(cfg), q, nil)
			if refErr != gotErr {
				t.Fatalf("generous %s: error divergence on %q: ref=%q got=%q", cfg.name, q, refErr, gotErr)
			}
			if refErr == "" && !rowsEqual(refRows, gotRows) {
				t.Fatalf("generous %s: rows diverged on %q:\nref %v\ngot %v", cfg.name, q, refRows, gotRows)
			}

			res, err := starved(cfg).Run(q, nil)
			switch {
			case err == nil:
				if refErr != "" {
					t.Fatalf("starved %s: succeeded on %q but reference errored: %q", cfg.name, q, refErr)
				}
				got := renderRows(res)
				if !rowsEqual(refRows, got) {
					t.Fatalf("starved %s: under-budget run diverged on %q:\nref %v\ngot %v", cfg.name, q, refRows, got)
				}
			case refErr != "" && err.Error() == refErr:
				// Same non-budget failure as the reference: acceptable.
			default:
				var re *ResourceExhaustedError
				if !errors.As(err, &re) {
					t.Fatalf("starved %s: non-budget error on %q: %T %v", cfg.name, q, err, err)
				}
			}
		}
	}
}
