package cypher

import (
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
)

// Benchmarks comparing ordered-index range seeks against the equivalent
// full label/edge scans on the WWC2019 dataset. The "seek" variants run
// with seeks on (the default); the "fullscan" baselines turn every seek
// off (noSeeks), forcing the anchor to enumerate every candidate and rely
// on the WHERE re-filter. The ratio between the two is the selectivity win;
// the harness (`go run ./bench`) records its end-to-end counterpart as
// bolt_point's graph.seek_us, cypher.rows_scanned_per_row and
// cypher.index_seeks_per_op.

func benchIndexQuery(b *testing.B, query string, seeks bool) {
	b.Helper()
	gen, err := datasets.ByName("WWC2019")
	if err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(gen(datasets.Options{Seed: 42, ViolationRate: 0.03}))
	ex.noSeeks = !seeks
	// Warm the ordered index outside the timed region so the seek variant
	// measures steady-state lookups, not the one-time build.
	if _, err := ex.Run(query, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(query, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeSeek measures a selective numeric range on a labeled node:
// ~60 of ~2360 Person nodes satisfy the predicate, so the ordered index
// should skip ~97% of the label bucket.
func BenchmarkRangeSeek(b *testing.B) {
	const q = `MATCH (p:Person) WHERE p.id >= 12300 RETURN count(*) AS n`
	b.Run("seek", func(b *testing.B) { benchIndexQuery(b, q, true) })
	b.Run("fullscan", func(b *testing.B) { benchIndexQuery(b, q, false) })
}

// BenchmarkEdgePropSeek measures a selective range on a relationship
// property: SCORED_GOAL minutes are uniform in 1..90, so >= 85 keeps ~7%
// of the edges, and the seek derives its node anchors from the ordered
// edge index instead of scanning all nodes.
func BenchmarkEdgePropSeek(b *testing.B) {
	const q = `MATCH ()-[g:SCORED_GOAL]->() WHERE g.minute >= 85 RETURN count(*) AS n`
	b.Run("seek", func(b *testing.B) { benchIndexQuery(b, q, true) })
	b.Run("fullscan", func(b *testing.B) { benchIndexQuery(b, q, false) })
}
