package cypher

// MVCC soak: concurrent epoch publishers against live snapshot-pinned
// scans. This is the test the race detector is for — batches of mutations
// commit as fast as they can while several goroutines drive serial label
// scans and ordered-index range seeks through one shared Executor against
// pinned snapshots, and a cancellation storm checks that aborted queries
// leave no goroutine behind. Beyond -race cleanliness, every scan asserts the semantic
// invariant: a pinned query observes exactly one epoch, so its aggregates
// are internally consistent even though writers never pause.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// soakGraph: nodes with an ordered-index-friendly int property, two labels,
// and typed edges, so the workload hits label scans, range seeks and
// adjacency reads.
func soakGraph(n int) *graph.Graph {
	g := graph.New("soak")
	prev := graph.ID(0)
	for i := 0; i < n; i++ {
		nd := g.AddNode([]string{"S"}, graph.Props{"i": graph.NewInt(int64(i)), "even": graph.NewBool(i%2 == 0)})
		if prev != 0 {
			g.MustAddEdge(prev, nd.ID, []string{"NEXT"}, graph.Props{"w": graph.NewInt(int64(i))})
		}
		prev = nd.ID
	}
	return g
}

// TestMVCCSoakPublishersVsScans runs epoch publishers (single mutators and
// batches) against concurrent pinned scans until the deadline. Each scan
// checks pair-consistency: both aggregates of one query must describe the
// same epoch.
func TestMVCCSoakPublishersVsScans(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const base = 500
	g := soakGraph(base)
	ex := NewExecutor(g, WithSnapshotPin(true))

	deadline := time.After(2 * time.Second)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var published atomic.Int64

	// Publisher 1: single-mutation epochs — add a node, touch a property,
	// remove the node again, so the live count oscillates around base.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nd := g.AddNode([]string{"S"}, graph.Props{"i": graph.NewInt(int64(base + i))})
			_ = g.SetNodeProp(nd.ID, "even", graph.NewBool(i%2 == 0))
			g.RemoveNode(nd.ID)
			published.Add(3)
		}
	}()

	// Publisher 2: batch epochs — add a small chain, then remove it in a
	// second batch; each batch is one atomic epoch with a cascade.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := g.NewBatch()
			n1 := b.AddNode([]string{"S", "Tmp"}, graph.Props{"i": graph.NewInt(int64(base + 1000 + i))})
			n2 := b.AddNode([]string{"Tmp"}, nil)
			b.AddEdge(n1.ID, n2.ID, []string{"NEXT"}, nil)
			if _, err := b.Commit(); err != nil {
				t.Errorf("batch add: %v", err)
				return
			}
			rb := g.NewBatch()
			rb.RemoveNode(n1.ID)
			rb.RemoveNode(n2.ID)
			if _, err := rb.Commit(); err != nil {
				t.Errorf("batch remove: %v", err)
				return
			}
			published.Add(2)
		}
	}()

	// Readers: concurrent serial label scans and range seeks against pinned
	// views, all on the one shared executor.
	queries := []struct {
		src   string
		check func(t *testing.T, total, part int64)
	}{
		{
			// Pair-consistency: the even + odd split must sum to the total
			// observed in the same pinned execution.
			src: `MATCH (n:S) WITH count(n) AS total MATCH (m:S) WHERE m.even RETURN total AS a, count(m) AS b`,
			check: func(t *testing.T, total, evens int64) {
				if evens > total {
					t.Errorf("pinned scan tore: evens %d > total %d", evens, total)
				}
			},
		},
		{
			// Range seek over the ordered property index: every node with
			// i >= 0 IS every S node in the same pinned view.
			src: `MATCH (n:S) WITH count(n) AS total MATCH (m:S) WHERE m.i >= 0 RETURN total AS a, count(m) AS b`,
			check: func(t *testing.T, total, ranged int64) {
				if total != ranged {
					t.Errorf("range seek saw %d nodes, label scan saw %d in one pinned query", ranged, total)
				}
			},
		},
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				res, err := ex.Run(q.src, nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				a := res.Rows[0][res.Column("a")].Val.Int()
				b := res.Rows[0][res.Column("b")].Val.Int()
				q.check(t, a, b)
			}
		}(r)
	}

	<-deadline
	close(stop)
	wg.Wait()
	if published.Load() == 0 {
		t.Error("no epochs published during soak")
	}
	t.Logf("soak published %d epochs, final epoch %d", published.Load(), g.Epoch())
}

// TestMVCCSoakCancellationNoLeak cancels pinned queries mid-flight from
// four goroutines sharing one executor while a publisher keeps committing,
// then requires the goroutine count to settle back to baseline: an aborted
// query must leave nothing running.
func TestMVCCSoakCancellationNoLeak(t *testing.T) {
	g := soakGraph(300)
	ex := NewExecutor(g, WithSnapshotPin(true))
	before := runtime.NumGoroutine()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nd := g.AddNode([]string{"S"}, graph.Props{"i": graph.NewInt(int64(10000 + i))})
			g.RemoveNode(nd.ID)
		}
	}()

	// A cross-product query big enough that cancellation lands mid-scan.
	src := `MATCH (a:S), (b:S), (c:S) RETURN count(*) AS n`
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 5; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+(r+i)%5)*time.Millisecond)
				_, err := ex.RunCtx(ctx, src, nil)
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("reader %d run %d: %v", r, i, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s", before, n,
			buf[:runtime.Stack(buf, true)])
	}
}

// TestMVCCSoakMaintainerUnderWriters is the end-to-end shape: a metrics-
// style subscriber re-running pinned queries from the commit path while an
// independent reader hammers the executor. (The full rule-level version
// lives in internal/metrics; this keeps a cypher-local regression.)
func TestMVCCSoakMaintainerUnderWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	g := soakGraph(200)
	ex := NewExecutor(g, WithSnapshotPin(true))

	var subRuns atomic.Int64
	cancel := g.OnCommit(func(d *graph.Delta) {
		// Subscribers run on the commit path: the pinned view here must be
		// exactly the just-committed epoch.
		res, err := ex.Run(`MATCH (n:S) RETURN count(n) AS n`, nil)
		if err != nil {
			t.Errorf("subscriber query: %v", err)
			return
		}
		if got := res.Rows[0][res.Column("n")].Val.Int(); got < 200 {
			t.Errorf("subscriber saw %d < base 200", got)
		}
		subRuns.Add(1)
	})
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ex.Run(fmt.Sprintf(`MATCH (n:S) WHERE n.i >= %d RETURN count(n) AS n`, i%200), nil); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		g.AddNode([]string{"S"}, graph.Props{"i": graph.NewInt(int64(500 + i))})
	}
	close(stop)
	wg.Wait()
	if subRuns.Load() != 50 {
		t.Errorf("subscriber ran %d times, want 50", subRuns.Load())
	}
}
