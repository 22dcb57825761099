// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	BenchmarkTable1DatasetLoad       Table 1  dataset sizes
//	BenchmarkTable2WWC2019Mining     Table 2  WWC2019 metrics grid
//	BenchmarkTable3CybersecurityMining  Table 3
//	BenchmarkTable4TwitterMining     Table 4
//	BenchmarkTable5MiningTime        Table 5  simulated mining seconds
//	BenchmarkTable6CypherCorrectness Table 6  correct/generated queries
//	BenchmarkBoundaryAudit           §4.5 broken-pattern counts
//	BenchmarkAblation*               DESIGN.md ablations A1-A4
//	BenchmarkEngine*                 substrate micro-benchmarks
//
// Each table bench reports the paper's row values as custom benchmark
// metrics; `go run ./cmd/benchtables` prints the same numbers as formatted
// tables.
package graphrules

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/baseline"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/embedding"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/metrics"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/report"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/storage"
	"github.com/graphrules/graphrules/internal/textenc"
)

const benchSeed = 42

// graphCache memoizes generated datasets across benchmarks.
var graphCache sync.Map

func benchGraph(name string) *Graph {
	if g, ok := graphCache.Load(name); ok {
		return g.(*Graph)
	}
	g := Dataset(name, DefaultDatasetOptions())
	graphCache.Store(name, g)
	return g
}

// gridCache memoizes the full experimental grid per dataset (used by the
// Table 5/6 reporting benches so the mining work isn't repeated).
var gridCache sync.Map

func benchGrid(b *testing.B, name string) []report.Cell {
	if cells, ok := gridCache.Load(name); ok {
		return cells.([]report.Cell)
	}
	cells, err := report.RunDataset(benchGraph(name), benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	gridCache.Store(name, cells)
	return cells
}

// BenchmarkTable1DatasetLoad regenerates Table 1: the cost of materializing
// each dataset at its exact paper size.
func BenchmarkTable1DatasetLoad(b *testing.B) {
	for _, info := range datasets.Table1 {
		b.Run(info.Name, func(b *testing.B) {
			var g *Graph
			for i := 0; i < b.N; i++ {
				g = Dataset(info.Name, DefaultDatasetOptions())
			}
			if g.NodeCount() != info.Nodes || g.EdgeCount() != info.Edges {
				b.Fatalf("size drift: %d/%d", g.NodeCount(), g.EdgeCount())
			}
			b.ReportMetric(float64(g.NodeCount()), "nodes")
			b.ReportMetric(float64(g.EdgeCount()), "edges")
			b.ReportMetric(float64(len(g.NodeLabels())), "node_labels")
			b.ReportMetric(float64(len(g.EdgeTypes())), "edge_labels")
		})
	}
}

// benchMetricsTable runs the 8-configuration grid of one metrics table
// (Tables 2-4), reporting the paper's row values per configuration.
func benchMetricsTable(b *testing.B, dataset string) {
	g := benchGraph(dataset)
	for _, profile := range llm.Profiles() {
		for _, method := range mining.Methods {
			for _, mode := range prompt.Modes {
				name := fmt.Sprintf("%s/%s/%s", profile.Name, shortMethod(method), mode)
				b.Run(name, func(b *testing.B) {
					var res *MiningResult
					var err error
					for i := 0; i < b.N; i++ {
						res, err = Mine(g, MiningConfig{
							Model:  NewSimModel(profile, benchSeed),
							Method: method,
							Mode:   mode,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
					agg := res.Aggregate
					b.ReportMetric(float64(agg.Rules), "rules")
					b.ReportMetric(agg.MeanSupport, "supp")
					b.ReportMetric(agg.MeanCoverage, "cov%")
					b.ReportMetric(agg.MeanConfidence, "conf%")
				})
			}
		}
	}
}

func shortMethod(m mining.Method) string {
	if m == mining.RAG {
		return "RAG"
	}
	return "SWA"
}

// BenchmarkTable2WWC2019Mining regenerates Table 2.
func BenchmarkTable2WWC2019Mining(b *testing.B) { benchMetricsTable(b, "WWC2019") }

// BenchmarkTable3CybersecurityMining regenerates Table 3.
func BenchmarkTable3CybersecurityMining(b *testing.B) { benchMetricsTable(b, "Cybersecurity") }

// BenchmarkTable4TwitterMining regenerates Table 4.
func BenchmarkTable4TwitterMining(b *testing.B) { benchMetricsTable(b, "Twitter") }

// BenchmarkTable5MiningTime regenerates Table 5: the simulated LLM mining
// seconds per configuration (from the cached grid; the real wall-clock of
// the pipeline is what Tables 2-4 benches measure).
func BenchmarkTable5MiningTime(b *testing.B) {
	for _, dataset := range datasets.Names() {
		cells := benchGrid(b, dataset)
		for _, c := range cells {
			c := c
			name := fmt.Sprintf("%s/%s/%s/%s", dataset, c.Model, shortMethod(c.Method), c.Mode)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = c.Result.MiningSeconds
				}
				b.ReportMetric(c.Result.MiningSeconds, "sim_s")
				b.ReportMetric(float64(c.Result.Windows), "llm_calls")
			})
		}
	}
}

// BenchmarkTable6CypherCorrectness regenerates Table 6: correct / generated
// Cypher query counts per configuration.
func BenchmarkTable6CypherCorrectness(b *testing.B) {
	for _, dataset := range datasets.Names() {
		cells := benchGrid(b, dataset)
		for _, c := range cells {
			c := c
			name := fmt.Sprintf("%s/%s/%s/%s", dataset, c.Model, shortMethod(c.Method), c.Mode)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = c.Result.CypherCorrect
				}
				b.ReportMetric(float64(c.Result.CypherCorrect), "correct")
				b.ReportMetric(float64(c.Result.CypherTotal), "generated")
			})
		}
	}
}

// BenchmarkBoundaryAudit reproduces the §4.5 broken-pattern counts (paper:
// 6 / 11 / 6) by windowing each dataset's incident encoding.
func BenchmarkBoundaryAudit(b *testing.B) {
	for _, dataset := range datasets.Names() {
		b.Run(dataset, func(b *testing.B) {
			g := benchGraph(dataset)
			var broken []textenc.Block
			for i := 0; i < b.N; i++ {
				enc := textenc.IncidentEncoder{}.Encode(g)
				var err error
				broken, err = textenc.BrokenBlocks(enc, textenc.DefaultWindowTokens, textenc.DefaultOverlapTokens)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(broken)), "broken_patterns")
		})
	}
}

// BenchmarkAblationEncoders (A1): the incident encoder against adjacency
// and triplet alternatives on WWC2019.
func BenchmarkAblationEncoders(b *testing.B) {
	g := benchGraph("WWC2019")
	for _, name := range textenc.EncoderNames() {
		enc := textenc.Encoders()[name]
		b.Run(name, func(b *testing.B) {
			var res *MiningResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Mine(g, MiningConfig{Model: NewSimModel(LLaMA3(), benchSeed), Encoder: enc})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Aggregate.Rules), "rules")
			b.ReportMetric(res.Aggregate.MeanConfidence, "conf%")
			b.ReportMetric(float64(res.Windows), "llm_calls")
		})
	}
}

// BenchmarkAblationWindows (A2): window size / overlap sweep on WWC2019.
func BenchmarkAblationWindows(b *testing.B) {
	g := benchGraph("WWC2019")
	for _, size := range []int{2000, 4000, 8000, 16000} {
		for _, overlap := range []int{-1, 500} { // -1 disables overlap
			label := overlap
			if label < 0 {
				label = 0
			}
			b.Run(fmt.Sprintf("w%d_o%d", size, label), func(b *testing.B) {
				var res *MiningResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = Mine(g, MiningConfig{
						Model:         NewSimModel(LLaMA3(), benchSeed),
						WindowTokens:  size,
						OverlapTokens: overlap,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Windows), "llm_calls")
				b.ReportMetric(float64(res.BrokenPatterns), "broken")
				b.ReportMetric(res.Aggregate.MeanConfidence, "conf%")
				b.ReportMetric(res.MiningSeconds, "sim_s")
			})
		}
	}
}

// BenchmarkAblationRAGTopK (A3): retrieval depth sweep on Cybersecurity.
func BenchmarkAblationRAGTopK(b *testing.B) {
	g := benchGraph("Cybersecurity")
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var res *MiningResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Mine(g, MiningConfig{
					Model:   NewSimModel(LLaMA3(), benchSeed),
					Method:  RAG,
					RAGTopK: k,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Aggregate.Rules), "rules")
			b.ReportMetric(res.Aggregate.MeanCoverage, "cov%")
			b.ReportMetric(res.MiningSeconds, "sim_s")
		})
	}
}

// BenchmarkBaselineMiner (A4): the AMIE-style comparator.
func BenchmarkBaselineMiner(b *testing.B) {
	for _, dataset := range []string{"WWC2019", "Cybersecurity"} {
		for _, complex := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/complex=%v", dataset, complex), func(b *testing.B) {
				g := benchGraph(dataset)
				var res *baseline.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = baseline.Mine(g, baseline.Config{MinConfidence: 90, IncludeComplex: complex})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.CandidatesTried), "candidates")
				b.ReportMetric(float64(len(res.Scores)), "rules")
			})
		}
	}
}

// ---------- substrate micro-benchmarks ----------

// BenchmarkEngineUniquenessQuery measures the canonical grouped uniqueness
// check on the 43k-node Twitter graph.
func BenchmarkEngineUniquenessQuery(b *testing.B) {
	g := benchGraph("Twitter")
	ex := NewExecutor(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.Run(`MATCH (t:Tweet) WITH t.id AS id, count(*) AS c WHERE c > 1 RETURN count(*) AS n`, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstInt("n") == 0 {
			b.Fatal("expected duplicate tweet ids")
		}
	}
}

// BenchmarkEngineTwoHopMatch measures multi-hop pattern matching with a
// negated pattern predicate on WWC2019.
func BenchmarkEngineTwoHopMatch(b *testing.B) {
	g := benchGraph("WWC2019")
	ex := NewExecutor(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ex.Run(`MATCH (p:Person)-[:PLAYED_IN]->(m:Match)-[:IN_TOURNAMENT]->(t:Tournament)
			WHERE NOT (p)-[:IN_SQUAD]->(:Squad)-[:FOR]->(t) RETURN count(*) AS n`, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIncidentEncode measures graph-to-text encoding throughput.
func BenchmarkEngineIncidentEncode(b *testing.B) {
	g := benchGraph("Cybersecurity")
	b.ResetTimer()
	var tokens int
	for i := 0; i < b.N; i++ {
		tokens = textenc.IncidentEncoder{}.Encode(g).TokenCount()
	}
	b.ReportMetric(float64(tokens), "tokens")
}

// BenchmarkEngineEmbedding measures the hashing embedder.
func BenchmarkEngineEmbedding(b *testing.B) {
	e := embedding.MustNewHashing(embedding.DefaultDim)
	text := "Node 42 with labels Person has properties (id: 10042, name: \"Alex Smith\"). " +
		"Node 42 has edge SCORED_GOAL to node 77 (Match) with properties (minute: 5)."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Embed(text)
	}
}

// BenchmarkEngineSnapshot measures snapshot serialization round trips.
func BenchmarkEngineSnapshot(b *testing.B) {
	g := benchGraph("Cybersecurity")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := storage.WriteSnapshot(&buf, g); err != nil {
			b.Fatal(err)
		}
		if _, err := storage.ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// wwcRules is the WWC2019 scoring workload used by BenchmarkScoreRules:
// the same six rule shapes the cross-check suite exercises.
func wwcRules() []rules.Rule {
	return []rules.Rule{
		&rules.RequiredProperty{Label: "Match", Key: "date"},
		&rules.UniqueProperty{Label: "Person", Key: "id"},
		&rules.EdgeEndpoints{EdgeType: "IN_TOURNAMENT", FromLabel: "Match", ToLabel: "Tournament"},
		&rules.UniqueEdgeProp{EdgeType: "SCORED_GOAL", FromLabel: "Person", ToLabel: "Match", Key: "minute"},
		&rules.MandatoryEdge{Label: "Squad", EdgeType: "FOR", OtherLabel: "Tournament"},
		&rules.PathAssociation{ALabel: "Person", E1: "PLAYED_IN", BLabel: "Match", E2: "IN_TOURNAMENT", CLabel: "Tournament",
			ReqE1: "IN_SQUAD", ReqLabel: "Squad", ReqE2: "FOR"},
	}
}

// BenchmarkScoreRules measures the rule-scoring hot path on WWC2019 across
// engine configurations. cold_serial scores with a fresh scorer per pass;
// warm_serial shares one scorer (warm plan cache); parallel adds the
// GOMAXPROCS worker pool.
// The cypher-vs-native cross-check runs first, outside the timed loops.
func BenchmarkScoreRules(b *testing.B) {
	g := benchGraph("WWC2019")
	rs := wwcRules()
	for _, r := range rs {
		if err := metrics.CrossCheck(g, r); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold_serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, failed := metrics.EvaluateRules(g, rs); len(failed) > 0 {
				b.Fatal(failed[0])
			}
		}
	})
	b.Run("warm_serial", func(b *testing.B) {
		sc := metrics.NewScorer(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range rs {
				if _, err := sc.EvaluateRule(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		st := sc.Executor().PlanCacheStats()
		b.ReportMetric(float64(st.Hits), "plan_hits")
	})
	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			if _, failed := metrics.EvaluateRulesParallel(g, rs, workers); len(failed) > 0 {
				b.Fatal(failed[0])
			}
		}
	})
}

// BenchmarkEngineNativeVsCypher compares the two metric evaluation paths on
// the same rule (the dual-path invariant's cost profile).
func BenchmarkEngineNativeVsCypher(b *testing.B) {
	g := benchGraph("Cybersecurity")
	r := &rules.ValueDomain{Label: "User", Key: "owned",
		Allowed: []Value{NewBoolValue(true), NewBoolValue(false)}}
	b.Run("cypher", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := metrics.EvaluateQueries(g, r.Queries()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.CountsNative(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
