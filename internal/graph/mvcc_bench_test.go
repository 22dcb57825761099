package graph

// MVCC write-path benchmarks. Recorded numbers come from the harness
// (`go run ./bench`): graph.commit_us, storage.wal_commit_us and
// graph.snapshot_cold_us on the bolt_rw workload.
//
// BenchmarkMVCCWrite measures sustained mutation throughput: each
// iteration is one committed epoch (add a node, set a property, remove the
// node). The concurrent variants run snapshot readers the whole time, so
// the numbers show what epoch publication costs when every commit
// invalidates a pinned-view cache that readers keep rebuilding — the
// clone-and-swap design this replaced paid a full graph copy per mutation
// instead.

import (
	"fmt"
	"sync"
	"testing"
)

func benchBaseGraph(n int) *Graph {
	g := New("bench")
	for i := 0; i < n; i++ {
		g.AddNode([]string{"B"}, Props{"i": NewInt(int64(i))})
	}
	return g
}

func BenchmarkMVCCWrite(b *testing.B) {
	for _, readers := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			g := benchBaseGraph(10000)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// A pinned scan: snapshot, then walk the label bucket.
						s := g.Snapshot()
						n := 0
						for range s.NodesWithLabel("B") {
							n++
						}
						_ = n
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd := g.AddNode([]string{"B"}, Props{"i": NewInt(int64(i))})
				if err := g.SetNodeProp(nd.ID, "j", NewInt(int64(i))); err != nil {
					b.Fatal(err)
				}
				g.RemoveNode(nd.ID)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N*3), "mutations")
		})
	}
}

// BenchmarkMVCCBatchWrite amortizes epoch publication over batch size: one
// commit (one lock acquisition, one epoch, one delta) per K mutations.
func BenchmarkMVCCBatchWrite(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			g := benchBaseGraph(10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := g.NewBatch()
				ids := make([]ID, size)
				for k := 0; k < size; k++ {
					ids[k] = bt.AddNode([]string{"B"}, Props{"i": NewInt(int64(k))}).ID
				}
				if _, err := bt.Commit(); err != nil {
					b.Fatal(err)
				}
				rb := g.NewBatch()
				for _, id := range ids {
					rb.RemoveNode(id)
				}
				if _, err := rb.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot prices the snapshot itself: first call after an epoch
// pays the shallow map copies, subsequent calls hit the per-epoch cache.
func BenchmarkSnapshot(b *testing.B) {
	for _, mode := range []string{"cold", "cached"} {
		b.Run(mode, func(b *testing.B) {
			g := benchBaseGraph(10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					b.StopTimer()
					// Invalidate the cache with a real epoch.
					nd := g.AddNode([]string{"Tmp"}, nil)
					g.RemoveNode(nd.ID)
					b.StartTimer()
				}
				if s := g.Snapshot(); s == nil {
					b.Fatal("nil snapshot")
				}
			}
		})
	}
}
