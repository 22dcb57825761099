// Executor-vs-mutator race coverage. This file is an external test package
// (graph_test) because it drives internal/cypher, which imports graph —
// an in-package test would create an import cycle.
package graph_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/graph"
)

// TestConcurrentRunsUnderMutation drives serial Run calls from several
// goroutines through one shared Executor against concurrent node/edge
// mutations. The writers hit SetNodeProp on an indexed property, so the
// lazily built property index is invalidated and rebuilt while the queries
// are scanning. Under -race this pins the copy-on-write mutation contract:
// a running query holds node/edge snapshots and must never observe a
// struct being written in place.
func TestConcurrentRunsUnderMutation(t *testing.T) {
	g := graph.New("run-race")
	var ids []graph.ID
	for i := 0; i < 300; i++ {
		n := g.AddNode([]string{"Person"}, graph.Props{"idx": graph.NewInt(int64(i)), "bucket": graph.NewInt(int64(i % 7))})
		ids = append(ids, n.ID)
		if i > 0 {
			g.MustAddEdge(ids[i-1], ids[i], []string{"NEXT"}, graph.Props{"w": graph.NewInt(int64(i))})
		}
	}

	queries := []string{
		// Property-index anchor: forces a pushdown seek against the index
		// the writers keep invalidating.
		`MATCH (p:Person) WHERE p.bucket = 3 RETURN count(*) AS n`,
		// Label-scan anchor with WHERE re-filtering.
		`MATCH (p:Person) WHERE p.idx > 150 RETURN p.idx`,
		// Relationship expansion from scanned anchors.
		`MATCH (a:Person)-[r:NEXT]->(b:Person) RETURN count(*) AS n`,
		// Aggregate fast path with property access on both endpoints.
		`MATCH (a:Person)-[:NEXT]->(b) RETURN min(a.idx) AS lo, max(b.idx) AS hi`,
	}

	var (
		writers, readers sync.WaitGroup
		stop             atomic.Bool
	)

	// Writers: property writes (index invalidation), label additions, and
	// fresh nodes/edges appearing mid-scan. They run until the readers
	// have finished, so every Run overlaps live mutation; Gosched
	// keeps them from starving readers on a single-CPU machine (every
	// write invalidates the caches readers then rebuild).
	for w := 0; w < 2; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; !stop.Load(); i++ {
				runtime.Gosched()
				id := ids[(i*7+w)%len(ids)]
				if err := g.SetNodeProp(id, "bucket", graph.NewInt(int64(i%7))); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					n := g.AddNode([]string{"Person"}, graph.Props{"idx": graph.NewInt(int64(1000 + i)), "bucket": graph.NewInt(int64(i % 7))})
					g.MustAddEdge(ids[i%len(ids)], n.ID, []string{"NEXT"}, nil)
				}
				if i%17 == 0 {
					if err := g.AddNodeLabels(id, "Touched"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	// Readers: goroutines sharing one executor (and its plan cache), each
	// running serial queries in a loop — the concurrency the Bolt server
	// and the scoring worker pool actually run.
	ex := cypher.NewExecutor(g)
	for r := 0; r < 4; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 12; i++ {
				q := queries[(i+r)%len(queries)]
				if _, err := ex.Run(q, nil); err != nil {
					t.Errorf("reader %d: Run(%q): %v", r, q, err)
					return
				}
			}
		}()
	}

	readers.Wait()
	stop.Store(true)
	writers.Wait()
}
