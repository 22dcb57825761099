package metrics

// Delta re-scoring benchmarks. The harness (`go run ./bench`) has no
// Maintainer workload yet, so these are the only measurement.
//
// BenchmarkDeltaRescore compares what one committed epoch costs to fold
// into the rule scores: "delta" applies the epoch through the Maintainer
// (only footprint-intersecting rules re-run), "full" recomputes every
// rule — the pre-maintenance behaviour. Two epoch shapes bound the range:
// an unrelated-key property write (the delta skips everything) and a
// structural User change (the delta re-runs the User-reading rules, which
// on this rule set is most of them).

import (
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
)

func BenchmarkDeltaRescore(b *testing.B) {
	shapes := []struct {
		name   string
		mutate func(g *graph.Graph, i int)
	}{
		{"unrelated-key", func(g *graph.Graph, i int) {
			_ = g.SetNodeProp(g.Nodes()[i%100], "zz_scratch", graph.NewInt(int64(i)))
		}},
		{"structural-user", func(g *graph.Graph, i int) {
			// One epoch per iteration: alternate add/remove so the graph
			// stays near its base size.
			if i%2 == 0 {
				g.AddNode([]string{"User"}, graph.Props{"owned": graph.NewBool(false)})
			} else {
				ids := g.NodesWithLabel("User")
				g.RemoveNode(ids[len(ids)-1])
			}
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name+"/delta", func(b *testing.B) {
			g := datasets.Cybersecurity(datasets.Options{Seed: 7, ViolationRate: 0.03})
			rs := oracleRules("Cybersecurity")
			m := NewMaintainer(g, rs)
			defer m.Attach()() // every epoch applied on the commit path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shape.mutate(g, i)
			}
			b.StopTimer()
			st := m.Stats()
			b.ReportMetric(float64(st.Rescored)/float64(b.N), "rescores/op")
		})
		b.Run(shape.name+"/full", func(b *testing.B) {
			g := datasets.Cybersecurity(datasets.Options{Seed: 7, ViolationRate: 0.03})
			rs := oracleRules("Cybersecurity")
			sc := NewScorer(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shape.mutate(g, i)
				for _, r := range rs {
					if _, err := sc.EvaluateRule(r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
