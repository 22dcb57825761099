// Package metrics scores consistency rules against a property graph with
// the paper's adapted AMIE measures (§4.2): support, coverage and
// confidence. The metrics for a rule are computed by executing its Cypher
// queries on the embedded engine, exactly as the paper executes generated
// queries on Neo4j; a native evaluation path cross-checks the engine.
//
// Table 2–4 report one aggregate row per configuration; following the
// paper's presentation, the aggregate Supp column is the mean support per
// rule and Cov%/Conf% are means across the scored rules.
package metrics

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/rules"
)

// Score is one rule's evaluation result.
type Score struct {
	Rule       rules.Rule
	Counts     rules.Counts
	Coverage   float64 // percent
	Confidence float64 // percent
}

// Scorer evaluates rule metric queries against one graph through a shared
// executor, so the plan cache and property indexes warm up across rules.
// It is safe for concurrent use.
type Scorer struct {
	g  *graph.Graph
	ex *cypher.Executor
}

// NewScorer returns a scorer bound to the graph. Executor options (pushdown
// toggles, plan-cache cap, budgets, ...) pass through verbatim to the
// shared executor:
//
//	sc := metrics.NewScorer(g, cypher.WithPlanCacheCap(256))
func NewScorer(g *graph.Graph, opts ...cypher.Option) *Scorer {
	return &Scorer{g: g, ex: cypher.NewExecutor(g, opts...)}
}

// Executor exposes the scorer's shared executor (for cache stats).
func (s *Scorer) Executor() *cypher.Executor { return s.ex }

// EvaluateQueries runs a rule's three metric queries. Every query must
// return a row whose column `n` (or sole column) holds a numeric count —
// a missing, NULL, or non-numeric count is an error, never a silent zero.
func (s *Scorer) EvaluateQueries(qs rules.QuerySet) (rules.Counts, error) {
	return s.EvaluateQueriesCtx(context.Background(), qs)
}

// EvaluateQueriesCtx is EvaluateQueries with cancellation: a done context
// aborts the current query promptly and surfaces ctx.Err().
func (s *Scorer) EvaluateQueriesCtx(ctx context.Context, qs rules.QuerySet) (rules.Counts, error) {
	runCount := func(src, what string) (int64, error) {
		res, err := s.ex.RunCtx(ctx, src, nil)
		if err != nil {
			return 0, fmt.Errorf("metrics: %s query failed: %w", what, err)
		}
		col := "n"
		if res.Column(col) < 0 && len(res.Columns) == 1 {
			col = res.Columns[0]
		}
		n, err := res.IntErr(0, col)
		if err != nil {
			return 0, fmt.Errorf("metrics: %s query did not produce a count: %w", what, err)
		}
		return n, nil
	}
	var c rules.Counts
	var err error
	if c.Support, err = runCount(qs.Support, "support"); err != nil {
		return c, err
	}
	if c.Body, err = runCount(qs.Body, "body"); err != nil {
		return c, err
	}
	if c.HeadTotal, err = runCount(qs.HeadTotal, "head-total"); err != nil {
		return c, err
	}
	return c, nil
}

// EvaluateRule scores a rule using its reference Cypher. It is a wrapper
// over EvaluateRuleCtx with a background context.
func (s *Scorer) EvaluateRule(r rules.Rule) (Score, error) {
	return s.EvaluateRuleCtx(context.Background(), r)
}

// EvaluateRuleCtx is EvaluateRule with cancellation: a done context aborts
// the in-flight metric query promptly and surfaces ctx.Err().
func (s *Scorer) EvaluateRuleCtx(ctx context.Context, r rules.Rule) (Score, error) {
	c, err := s.EvaluateQueriesCtx(ctx, r.Queries())
	if err != nil {
		return Score{}, fmt.Errorf("metrics: rule %s: %w", r.DedupKey(), err)
	}
	return Score{Rule: r, Counts: c, Coverage: c.Coverage(), Confidence: c.Confidence()}, nil
}

// EvaluateQueries runs a rule's three metric queries on the graph with a
// one-shot scorer; see Scorer.EvaluateQueries for the count contract.
func EvaluateQueries(g *graph.Graph, qs rules.QuerySet) (rules.Counts, error) {
	return NewScorer(g).EvaluateQueries(qs)
}

// EvaluateRule scores a rule using its reference Cypher.
func EvaluateRule(g *graph.Graph, r rules.Rule) (Score, error) {
	return NewScorer(g).EvaluateRule(r)
}

// EvaluateRules scores a rule list serially, skipping rules whose queries
// fail and returning them in failed.
func EvaluateRules(g *graph.Graph, rs []rules.Rule) (scores []Score, failed []error) {
	return EvaluateRulesParallel(g, rs, 1)
}

// EvaluateRulesParallel scores a rule list with a worker pool; it is a
// wrapper over EvaluateRulesParallelCtx with a background context.
func EvaluateRulesParallel(g *graph.Graph, rs []rules.Rule, workers int) (scores []Score, failed []error) {
	return EvaluateRulesParallelCtx(context.Background(), g, rs, workers)
}

// EvaluateRulesParallelCtx scores a rule list with a worker pool sharing one
// executor (and therefore one plan cache). Results are returned in input
// order regardless of worker count or scheduling, and each rule's failure
// is isolated: it lands in failed without affecting the others' scores.
// workers <= 0 selects GOMAXPROCS. Once ctx is done, in-flight queries
// abort and every not-yet-started rule fails with ctx.Err().
func EvaluateRulesParallelCtx(ctx context.Context, g *graph.Graph, rs []rules.Rule, workers int) (scores []Score, failed []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rs) {
		workers = len(rs)
	}
	type slot struct {
		score Score
		err   error
	}
	out := make([]slot, len(rs))
	sc := NewScorer(g)
	forEachIndex(len(rs), workers, func(i int) {
		defer func() {
			if p := recover(); p != nil {
				out[i].err = fmt.Errorf("metrics: rule %s: panic during evaluation: %v", rs[i].DedupKey(), p)
			}
		}()
		if err := ctx.Err(); err != nil {
			out[i].err = err
			return
		}
		out[i].score, out[i].err = sc.EvaluateRuleCtx(ctx, rs[i])
	})
	for _, s := range out {
		if s.err != nil {
			failed = append(failed, s.err)
			continue
		}
		scores = append(scores, s.score)
	}
	return scores, failed
}

// EvalOptions configures batch query-set evaluation.
type EvalOptions struct {
	// Workers is the rule-level worker pool size; <= 0 selects GOMAXPROCS.
	// Each query runs serially on its worker; output order and counts never
	// depend on the value.
	Workers int
	// ExecOptions are applied to the shared executor last, so any
	// cypher.Option (pushdown toggles, plan-cache cap) is reachable from
	// batch evaluation.
	ExecOptions []cypher.Option
	// MaxRows / MemoryBudget / QueryDeadline put per-query resource
	// budgets on the shared executor; a rule whose query exceeds one gets
	// a typed *cypher.ResourceExhaustedError in its errs slot while the
	// other rules keep scoring. Zero disables each; under-budget queries
	// score identically to ungoverned.
	MaxRows       int
	MemoryBudget  int64
	QueryDeadline time.Duration
	// Admission gates every scoring query through an admission controller
	// (nil = ungated).
	Admission cypher.Admission
}

// execOptions renders the EvalOptions knobs as executor options, budgets
// included, with opt.ExecOptions last so callers can override anything.
func (opt EvalOptions) execOptions() []cypher.Option {
	return append([]cypher.Option{
		cypher.WithMaxRows(opt.MaxRows),
		cypher.WithMemoryBudget(opt.MemoryBudget),
		cypher.WithQueryDeadline(opt.QueryDeadline),
		cypher.WithAdmission(opt.Admission),
	}, opt.ExecOptions...)
}

// EvaluateQuerySetsCtx evaluates many query sets against one graph with a
// worker pool sharing one executor (and plan cache). The returned slices
// are parallel to qss and in input order regardless of worker count;
// exactly one of counts[i] / errs[i] is meaningful per entry. Workers <= 0
// selects GOMAXPROCS. Once ctx is done, in-flight queries abort and every
// not-yet-started entry gets errs[i] = ctx.Err(); counts for entries that
// completed earlier are kept.
func EvaluateQuerySetsCtx(ctx context.Context, g *graph.Graph, qss []rules.QuerySet, opt EvalOptions) (counts []rules.Counts, errs []error) {
	counts, errs = make([]rules.Counts, len(qss)), make([]error, len(qss))
	sc := NewScorer(g, opt.execOptions()...)
	forEachIndex(len(qss), opt.Workers, func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("metrics: query set %d: panic during evaluation: %v", i, p)
			}
		}()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		counts[i], errs[i] = sc.EvaluateQueriesCtx(ctx, qss[i])
	})
	return counts, errs
}

// forEachIndex runs fn(0..n-1) on a bounded worker pool; fn must write
// only to its own index's slots. workers <= 0 selects GOMAXPROCS.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// CrossCheck verifies that the Cypher evaluation of a rule agrees with its
// native graph-walk evaluation; it is a wrapper over CrossCheckCtx with a
// background context.
func CrossCheck(g *graph.Graph, r rules.Rule) error {
	return CrossCheckCtx(context.Background(), g, r)
}

// CrossCheckCtx is CrossCheck with cancellation: a done context aborts the
// Cypher evaluation promptly. It returns an error describing the first
// mismatch between the Cypher and native counts — the metric layer's
// correctness invariant.
func CrossCheckCtx(ctx context.Context, g *graph.Graph, r rules.Rule) error {
	viaCypher, err := NewScorer(g).EvaluateQueriesCtx(ctx, r.Queries())
	if err != nil {
		return err
	}
	native, err := r.CountsNative(g)
	if err != nil {
		return fmt.Errorf("metrics: native evaluation of %s: %w", r.DedupKey(), err)
	}
	if viaCypher != native {
		return fmt.Errorf("metrics: rule %s: cypher counts %+v != native counts %+v",
			r.DedupKey(), viaCypher, native)
	}
	return nil
}

// Aggregate is one table row: means across a configuration's scored rules.
type Aggregate struct {
	Rules          int
	MeanSupport    float64
	MeanCoverage   float64 // percent
	MeanConfidence float64 // percent
}

// Aggregated folds per-rule scores into the table-row aggregate.
func Aggregated(scores []Score) Aggregate {
	a := Aggregate{Rules: len(scores)}
	if len(scores) == 0 {
		return a
	}
	for _, s := range scores {
		a.MeanSupport += float64(s.Counts.Support)
		a.MeanCoverage += s.Coverage
		a.MeanConfidence += s.Confidence
	}
	n := float64(len(scores))
	a.MeanSupport /= n
	a.MeanCoverage /= n
	a.MeanConfidence /= n
	return a
}
