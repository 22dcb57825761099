// Command rulemine runs the LLM consistency-rule mining pipeline on one of
// the paper's datasets (or a saved snapshot) and prints the mined rules
// with their support / coverage / confidence scores.
//
// Usage:
//
//	rulemine -dataset WWC2019 -model llama3 -method swa -mode zero
//	rulemine -snapshot graph.snap -model mixtral -method rag -mode few -v
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/report"
	"github.com/graphrules/graphrules/internal/resilience"
	"github.com/graphrules/graphrules/internal/storage"
	"github.com/graphrules/graphrules/internal/textenc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rulemine:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rulemine", flag.ContinueOnError)
	datasetName := fs.String("dataset", "WWC2019", "dataset to mine (WWC2019, Cybersecurity, Twitter)")
	snapshot := fs.String("snapshot", "", "binary snapshot file to mine instead of a generated dataset")
	modelName := fs.String("model", "llama3", "model profile: llama3 or mixtral")
	methodName := fs.String("method", "swa", "encoding method: swa (sliding window) or rag")
	modeName := fs.String("mode", "zero", "prompting: zero or few")
	encoderName := fs.String("encoder", "incident", "graph encoder: incident, adjacency or triplet")
	seed := fs.Int64("seed", 42, "model seed")
	graphSeed := fs.Int64("graph-seed", 42, "dataset generator seed")
	violations := fs.Float64("violations", 0.03, "dataset violation injection rate")
	verbose := fs.Bool("v", false, "print generated and corrected Cypher")
	asJSON := fs.Bool("json", false, "emit the full run report as JSON instead of text")
	tableName := fs.String("table", "", `print a summary table instead of the rule listing: "errors" (§4.4 category + lint analyzer census)`)
	scoreWorkers := fs.Int("score-workers", 0, "metric scoring worker pool (0 = Parallel's value, negative = GOMAXPROCS)")
	retries := fs.Int("retries", 0, "retry each failed LLM call up to N extra times (transient errors only)")
	callTimeout := fs.Duration("call-timeout", 0, "per-attempt LLM call deadline (0 = none); hung calls become retryable timeouts")
	bestEffort := fs.Bool("best-effort", false, "mine from surviving windows when some LLM calls fail instead of aborting")
	minWindowSuccess := fs.Float64("min-window-success", 0, "minimum fraction of windows that must succeed under -best-effort (0 = at least one)")
	deltaMetrics := fs.Bool("delta-metrics", false, "after mining, maintain the rule scores incrementally through a stream of graph mutations and report the refreshed aggregate")
	deltaEpochs := fs.Int("delta-epochs", 8, "mutation epochs to drive under -delta-metrics")
	deltaSeed := fs.Int64("delta-seed", 1, "mutation stream seed for -delta-metrics")
	maxRows := fs.Int("max-rows", 0, "per-query result row budget for metric scoring (0 = unlimited); over-budget rules report a typed evaluation error")
	memBudget := fs.Int64("mem-budget", 0, "per-query memory budget in bytes for metric scoring (0 = unlimited)")
	queryQueue := fs.Int("query-queue", 0, "admit at most N concurrent scoring queries with a bounded FIFO wait queue (0 = no admission control)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	if *snapshot != "" {
		var err error
		if g, err = storage.LoadFile(*snapshot); err != nil {
			return err
		}
	} else {
		gen, err := datasets.ByName(*datasetName)
		if err != nil {
			return err
		}
		g = gen(datasets.Options{Seed: *graphSeed, ViolationRate: *violations})
	}

	var profile llm.Profile
	switch strings.ToLower(*modelName) {
	case "llama3", "llama-3", "llama":
		profile = llm.LLaMA3()
	case "mixtral":
		profile = llm.Mixtral()
	default:
		return fmt.Errorf("unknown model %q (want llama3 or mixtral)", *modelName)
	}

	var method mining.Method
	switch strings.ToLower(*methodName) {
	case "swa", "sliding", "window":
		method = mining.SlidingWindow
	case "rag":
		method = mining.RAG
	default:
		return fmt.Errorf("unknown method %q (want swa or rag)", *methodName)
	}

	var mode prompt.Mode
	switch strings.ToLower(*modeName) {
	case "zero", "zero-shot":
		mode = prompt.ZeroShot
	case "few", "few-shot":
		mode = prompt.FewShot
	default:
		return fmt.Errorf("unknown mode %q (want zero or few)", *modeName)
	}

	encoder, ok := textenc.Encoders()[strings.ToLower(*encoderName)]
	if !ok {
		return fmt.Errorf("unknown encoder %q (want %v)", *encoderName, textenc.EncoderNames())
	}

	policy := mining.FailFast
	if *bestEffort {
		policy = mining.BestEffort
	}
	cfg := mining.Config{
		Model:            llm.NewSim(profile, *seed),
		Method:           method,
		Mode:             mode,
		Encoder:          encoder,
		ScoreWorkers:     *scoreWorkers,
		FailurePolicy:    policy,
		MinWindowSuccess: *minWindowSuccess,
		MaxRows:          *maxRows,
		MemoryBudget:     *memBudget,
		Resilience: resilience.Config{
			Retries:     *retries,
			CallTimeout: *callTimeout,
			Seed:        *seed,
		},
	}
	var gov *governor.Governor
	if *queryQueue > 0 {
		gov = governor.New(governor.Config{
			MaxConcurrent: *queryQueue,
			MaxQueue:      *queryQueue,
			QueueTimeout:  2 * time.Second,
		})
		cfg.Admission = gov
	}
	res, err := mining.Mine(g, cfg)
	if err != nil {
		return err
	}

	if *asJSON {
		return res.WriteJSON(out)
	}
	switch *tableName {
	case "":
	case "errors":
		fmt.Fprint(out, report.Census(res.ErrorCounts, res.LintCounts))
		return nil
	default:
		return fmt.Errorf("unknown table %q (want errors)", *tableName)
	}

	fmt.Fprintf(out, "Dataset %s: %d nodes, %d edges\n", g.Name(), g.NodeCount(), g.EdgeCount())
	fmt.Fprintf(out, "Model %s | %s | %s | encoder %s\n", res.Model, res.Method, res.Mode, res.Encoder)
	fmt.Fprintf(out, "LLM calls: %d | simulated mining time: %.2fs (+%.2fs translation) | wall clock: %s\n",
		res.Windows, res.MiningSeconds+res.IndexSeconds, res.TranslationSeconds, res.WallClock.Round(1000000))
	if res.Method == mining.SlidingWindow {
		fmt.Fprintf(out, "Patterns broken across window boundaries: %d\n", res.BrokenPatterns)
	}
	fmt.Fprintf(out, "Cypher correctness: %d/%d\n", res.CypherCorrect, res.CypherTotal)
	if len(res.WindowErrors) > 0 {
		fmt.Fprintf(out, "Windows lost to LLM failures: %d\n", len(res.WindowErrors))
		for _, we := range res.WindowErrors {
			fmt.Fprintf(out, "    window %d after %d attempt(s): %v\n", we.Window, we.Attempts, we.Err)
		}
	}
	if rs := res.Resilience; rs != nil && rs.Retry != nil && rs.Retry.Retries > 0 {
		fmt.Fprintf(out, "LLM retries: %d (%d call(s) exhausted all attempts)\n", rs.Retry.Retries, rs.Retry.Exhausted)
	}
	fmt.Fprintln(out)

	for i, mr := range res.Rules {
		fmt.Fprintf(out, "%2d. %s\n", i+1, mr.NL)
		fmt.Fprintf(out, "    kind=%s complexity=%d category=%s corrected=%v\n",
			mr.Rule.Kind(), mr.Rule.Complexity(), mr.Category, mr.Corrected)
		if mr.TranslateErr != nil {
			fmt.Fprintf(out, "    translation failed: %v\n", mr.TranslateErr)
		} else if mr.EvalErr != nil {
			fmt.Fprintf(out, "    evaluation failed: %v\n", mr.EvalErr)
		} else {
			fmt.Fprintf(out, "    support=%d coverage=%.2f%% confidence=%.2f%%\n",
				mr.Score.Counts.Support, mr.Score.Coverage, mr.Score.Confidence)
		}
		if *verbose {
			fmt.Fprintf(out, "    generated: %s\n", mr.Generated.Support)
			if mr.Corrected {
				fmt.Fprintf(out, "    corrected: %s\n", mr.Final.Support)
			}
		}
	}
	agg := res.Aggregate
	fmt.Fprintf(out, "\nAggregate: %d rules | mean support %.0f | mean coverage %.2f%% | mean confidence %.2f%%\n",
		agg.Rules, agg.MeanSupport, agg.MeanCoverage, agg.MeanConfidence)
	if gov != nil {
		fmt.Fprintf(out, "Governor: %s\n", gov.Stats())
	}

	if *deltaMetrics {
		return runDeltaMetrics(out, g, res, *deltaEpochs, *deltaSeed)
	}
	return nil
}

// runDeltaMetrics demonstrates incremental metric maintenance: the mined
// rules' scores are kept current through a seeded stream of graph
// mutations, re-scoring only the rules each epoch's delta can affect, and
// the final maintained state is verified against a full recompute.
func runDeltaMetrics(out io.Writer, g *graph.Graph, res *mining.Result, epochs int, seed int64) error {
	maintained := res.MaintainedRules()
	if len(maintained) == 0 {
		fmt.Fprintln(out, "\nDelta metrics: no successfully scored rules to maintain")
		return nil
	}
	ctx := context.Background()
	m := res.MaintainerCtx(ctx, g)
	detach := m.AttachCtx(ctx)
	defer detach()

	rng := rand.New(rand.NewSource(seed))
	labels := graph.ExtractSchema(g).NodeLabelNames()
	for e := 0; e < epochs; e++ {
		switch rng.Intn(3) {
		case 0:
			l := labels[rng.Intn(len(labels))]
			g.AddNode([]string{l}, graph.Props{"id": graph.NewInt(rng.Int63n(1 << 30))})
		case 1:
			ids := g.Nodes()
			g.RemoveNode(ids[rng.Intn(len(ids))])
		case 2:
			ids := g.Nodes()
			_ = g.SetNodeProp(ids[rng.Intn(len(ids))], "id", graph.NewInt(rng.Int63n(1<<30)))
		}
	}

	st := m.Stats()
	fmt.Fprintf(out, "\nDelta metrics: %d epochs | %d rule re-scores | %d provably unaffected (skipped)\n",
		st.Epochs, st.Rescored, st.Skipped)
	diffs, err := m.Diff(ctx)
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(out, "  MISMATCH:", d)
		}
		return fmt.Errorf("delta metrics: %d maintained score(s) diverged from full recompute", len(diffs))
	}
	agg := m.Aggregate()
	fmt.Fprintf(out, "Maintained aggregate (verified against full recompute): %d rules | mean support %.0f | mean coverage %.2f%% | mean confidence %.2f%%\n",
		agg.Rules, agg.MeanSupport, agg.MeanCoverage, agg.MeanConfidence)
	return nil
}
