// Package mining implements the paper's end-to-end pipeline (Figures 1-2):
// encode the property graph as text, feed it to an LLM through sliding
// windows or RAG retrieval, parse the generated natural-language rules,
// translate each rule to Cypher with a second prompt, classify and correct
// the generated queries (§4.4), and score every rule with
// support/coverage/confidence (§4.2).
package mining

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/correction"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/embedding"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/metrics"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/resilience"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/textenc"
	"github.com/graphrules/graphrules/internal/vectorstore"
)

// RuleBudgeter is optionally implemented by models that bound how many
// merged rules one mining run should keep.
type RuleBudgeter interface {
	RuleBudget(fewShot bool) int
}

// ruleBudget resolves the rule budget for a model, walking any middleware
// chain (resilience stacks, fault injectors) down to the model that
// actually implements RuleBudgeter.
func ruleBudget(m llm.Model, fewShot bool) int {
	for m != nil {
		if b, ok := m.(RuleBudgeter); ok {
			return b.RuleBudget(fewShot)
		}
		w, ok := m.(llm.ModelWrapper)
		if !ok {
			break
		}
		m = w.Unwrap()
	}
	return 12
}

// FailurePolicy selects how Mine treats window-level completion failures.
type FailurePolicy uint8

const (
	// FailFast aborts the run when any window's completion fails, after
	// attempting every window so the error reports them all.
	FailFast FailurePolicy = iota
	// BestEffort drops failed windows (recording them in
	// Result.WindowErrors) and mines from the survivors, as long as the
	// Config.MinWindowSuccess floor is met.
	BestEffort
)

// Method selects how the encoded graph reaches the model (§3.1).
type Method uint8

const (
	// SlidingWindow prompts the model once per overlapping window.
	SlidingWindow Method = iota
	// RAG embeds chunks into a vector store and prompts once with the
	// retrieved top-k chunks.
	RAG
)

// String returns the method name as used in the paper's tables.
func (m Method) String() string {
	if m == RAG {
		return "RAG"
	}
	return "Sliding Window Attention"
}

// Methods lists both methods in paper order.
var Methods = []Method{SlidingWindow, RAG}

// Config parameterizes one mining run.
type Config struct {
	Model llm.Model
	// Method defaults to SlidingWindow.
	Method Method
	// Mode defaults to zero-shot.
	Mode prompt.Mode
	// Encoder defaults to the incident encoder (the paper's choice).
	Encoder textenc.Encoder
	// WindowTokens/OverlapTokens default to the paper's 8000/500. Pass a
	// negative OverlapTokens to disable overlap entirely (0 selects the
	// default).
	WindowTokens  int
	OverlapTokens int
	// RAGChunkTokens defaults to 400, RAGTopK to 8.
	RAGChunkTokens int
	RAGTopK        int
	// EmbedDim defaults to embedding.DefaultDim.
	EmbedDim int
	// ExcludeRules lists natural-language rule statements a domain expert
	// rejected; they are passed to the model as prompt exclusions and
	// filtered from the merged output (interactive refinement, §5).
	ExcludeRules []string
	// Parallel sets how many sliding-window prompts run concurrently
	// (default 1). The paper's §4.3 names parallel prompting as the main
	// lever for efficient LLM rule mining; with N > 1 the Model must be
	// safe for concurrent use (SimModel is). Results are merged in window
	// order, so parallelism never changes the mined rules.
	Parallel int
	// ScoreWorkers sets the worker-pool size for the step-2 metric
	// scoring of the corrected query sets (default: Parallel). Unlike
	// Parallel it has no effect on the simulated LLM timings or the mined
	// rule set: scoring is deterministic at any worker count. Negative
	// values select GOMAXPROCS.
	ScoreWorkers int
	// ExecOptions are cypher executor options applied to the scoring
	// executor (plan-cache cap, snapshot pin, ...). None of them change
	// counts or rule order.
	ExecOptions []cypher.Option
	// MaxRows / MemoryBudget / QueryDeadline set per-query resource
	// budgets on the scoring executor (cypher.WithMaxRows etc.): a rule
	// whose query blows a budget records a typed *cypher.
	// ResourceExhaustedError as its EvalErr instead of stalling the whole
	// mining run. Zero disables each. A query finishing under budget
	// scores identically to ungoverned, so budgets never change the
	// counts of rules they don't kill.
	MaxRows       int
	MemoryBudget  int64
	QueryDeadline time.Duration
	// Admission gates scoring queries through an admission controller
	// (internal/governor); nil runs ungated.
	Admission cypher.Admission
	// FailurePolicy defaults to FailFast.
	FailurePolicy FailurePolicy
	// MinWindowSuccess is the minimum fraction of sliding windows that
	// must complete for a BestEffort run to proceed; 0 requires at least
	// one window. Values outside [0, 1] are rejected.
	MinWindowSuccess float64
	// Resilience configures the middleware stack Mine wraps around Model
	// (retries, per-call timeout, circuit breaker, rate limit); the zero
	// value installs nothing and calls Model directly.
	Resilience resilience.Config
}

func (c Config) withDefaults() (Config, error) {
	if c.Model == nil {
		return c, fmt.Errorf("mining: Config.Model is required")
	}
	if c.Encoder == nil {
		c.Encoder = textenc.IncidentEncoder{}
	}
	if c.WindowTokens == 0 {
		c.WindowTokens = textenc.DefaultWindowTokens
	}
	switch {
	case c.OverlapTokens == 0:
		c.OverlapTokens = textenc.DefaultOverlapTokens
	case c.OverlapTokens < 0:
		c.OverlapTokens = 0
	}
	if c.RAGChunkTokens == 0 {
		c.RAGChunkTokens = 400
	}
	if c.RAGTopK == 0 {
		c.RAGTopK = 8
	}
	if c.EmbedDim == 0 {
		c.EmbedDim = embedding.DefaultDim
	}
	if c.Parallel == 0 {
		c.Parallel = 1
	}
	if c.Parallel < 0 {
		return c, fmt.Errorf("mining: Parallel must be positive, got %d", c.Parallel)
	}
	if c.ScoreWorkers == 0 {
		c.ScoreWorkers = c.Parallel
	}
	if c.MaxRows < 0 || c.MemoryBudget < 0 || c.QueryDeadline < 0 {
		return c, fmt.Errorf("mining: resource budgets must be non-negative")
	}
	if c.MinWindowSuccess < 0 || c.MinWindowSuccess > 1 {
		return c, fmt.Errorf("mining: MinWindowSuccess must be in [0, 1], got %g", c.MinWindowSuccess)
	}
	return c, nil
}

// MinedRule is one rule's full journey through the pipeline.
type MinedRule struct {
	NL        string
	Rule      rules.Rule
	Generated rules.QuerySet      // raw model output (step 2)
	Final     rules.QuerySet      // after the correction protocol
	Category  correction.Category // §4.4 classification of Generated
	// Lint holds the full diagnostics the schema-aware linter produced for
	// the generated query set (support, body and head queries concatenated);
	// Category is derived from the error-category subset of these.
	Lint      []lint.Diagnostic
	Corrected bool
	Score     metrics.Score
	// Windows lists the sliding-window indexes that proposed the rule.
	Windows []int
	// EvalErr records a rule whose final queries still failed to execute
	// (possible for hallucinated queries that are also unexecutable).
	EvalErr error
	// TranslateErr records a rule whose step-2 translation call failed
	// after all resilience retries; under BestEffort the rule stays in
	// the result unscored instead of aborting the run.
	TranslateErr error
}

// WindowError records one sliding window whose completion ultimately
// failed after the resilience stack gave up.
type WindowError struct {
	// Window is the sliding-window index the failure belongs to.
	Window int
	// Attempts is how many completion attempts were made for the window.
	Attempts int
	Err      error
}

// Result is the outcome of one mining run.
type Result struct {
	Dataset string
	Model   string
	Method  Method
	Mode    prompt.Mode
	Encoder string

	Rules []MinedRule

	// Aggregate covers the rules that evaluated successfully.
	Aggregate metrics.Aggregate

	// MiningSeconds is the total simulated LLM compute for rule generation
	// (the quantity Table 5 reports); with Parallel > 1 workers,
	// ParallelSeconds is the simulated wall time of the same work (the
	// makespan of the window schedule). TranslationSeconds covers the
	// step-2 calls; IndexSeconds is RAG embedding/indexing overhead.
	MiningSeconds      float64
	ParallelSeconds    float64
	TranslationSeconds float64
	IndexSeconds       float64
	// WallClock measures the real runtime of the whole pipeline run.
	WallClock time.Duration

	Windows        int // LLM calls in step 1
	BrokenPatterns int // §4.5 boundary-break count (sliding window only)

	// WindowErrors lists the step-1 windows that failed after all
	// retries; empty on a clean run. Under BestEffort the run continued
	// without them.
	WindowErrors []WindowError
	// Resilience snapshots the middleware stack's counters (retry totals,
	// breaker transitions, ...) when Config.Resilience installed one.
	Resilience *resilience.StackStats

	// CypherCorrect / CypherTotal reproduce Table 6's cells.
	CypherCorrect int
	CypherTotal   int
	// ErrorCounts censuses the §4.4 categories.
	ErrorCounts map[correction.Category]int
	// LintCounts censuses lint findings across all generated query sets,
	// keyed by analyzer name — a finer-grained view than ErrorCounts that
	// also covers findings outside the paper's three error classes.
	LintCounts map[string]int
}

// embedTokensPerSecond is the cost-model throughput of the stand-in
// embedding model used for RAG indexing.
const embedTokensPerSecond = 20000

// Mine runs the full pipeline on a graph.
func Mine(g *graph.Graph, cfg Config) (*Result, error) {
	return MineCtx(context.Background(), g, cfg)
}

// MineCtx is Mine with cancellation: a done context aborts in-flight
// completions and metric queries and the call returns ctx.Err() promptly,
// regardless of the failure policy.
func MineCtx(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	model := cfg.Model
	var stack *resilience.Stack
	if cfg.Resilience.Enabled() {
		stack = resilience.NewStack(model, cfg.Resilience)
		model = stack
	}
	start := time.Now()
	res := &Result{
		Dataset:     g.Name(),
		Model:       cfg.Model.Name(),
		Method:      cfg.Method,
		Mode:        cfg.Mode,
		Encoder:     cfg.Encoder.Name(),
		ErrorCounts: map[correction.Category]int{},
		LintCounts:  map[string]int{},
	}

	enc := cfg.Encoder.Encode(g)

	// ---- Step 1: rule generation ----
	type seenRule struct {
		rule    rules.Rule
		windows []int
		borda   float64
	}
	var order []string
	seen := map[string]*seenRule{}
	excluded := map[string]bool{}
	for _, nl := range cfg.ExcludeRules {
		if r, ok := rules.ParseNL(nl); ok {
			excluded[r.DedupKey()] = true
		}
	}
	record := func(nl string, window, rank int) {
		r, ok := rules.ParseNL(nl)
		if !ok {
			return // the model emitted something outside the rule grammar
		}
		key := r.DedupKey()
		if excluded[key] {
			return // defensive: a model may ignore the exclusion instruction
		}
		sr := seen[key]
		if sr == nil {
			sr = &seenRule{rule: r}
			seen[key] = sr
			order = append(order, key)
		}
		sr.windows = append(sr.windows, window)
		sr.borda += 1 / float64(1+rank)
	}

	switch cfg.Method {
	case SlidingWindow:
		windows, err := textenc.SlidingWindows(enc, cfg.WindowTokens, cfg.OverlapTokens)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		res.Windows = len(windows)
		broken, err := textenc.BrokenBlocks(enc, cfg.WindowTokens, cfg.OverlapTokens)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		res.BrokenPatterns = len(broken)
		outcomes, err := completeWindows(ctx, cfg, model, windows)
		if err != nil {
			return nil, err
		}
		var failed []error
		workers := make([]float64, cfg.Parallel)
		for i, o := range outcomes {
			if o.err != nil {
				we := WindowError{
					Window:   windows[i].Index,
					Attempts: resilience.Attempts(o.err),
					Err:      o.err,
				}
				res.WindowErrors = append(res.WindowErrors, we)
				failed = append(failed, fmt.Errorf("window %d (%d attempt(s)): %w", we.Window, we.Attempts, o.err))
				continue
			}
			res.MiningSeconds += o.resp.SimSeconds
			// Greedy makespan: each worker takes the next window as it
			// frees up, which is how a real worker pool schedules.
			minW := 0
			for w := range workers {
				if workers[w] < workers[minW] {
					minW = w
				}
			}
			workers[minW] += o.resp.SimSeconds
			for rank, nl := range llm.ParseRuleLines(o.resp.Text) {
				record(nl, windows[i].Index, rank)
			}
		}
		for _, w := range workers {
			if w > res.ParallelSeconds {
				res.ParallelSeconds = w
			}
		}
		if len(failed) > 0 {
			if cfg.FailurePolicy == FailFast {
				return nil, fmt.Errorf("mining: %d of %d windows failed: %w",
					len(failed), len(windows), errors.Join(failed...))
			}
			need := 1
			if cfg.MinWindowSuccess > 0 {
				need = int(math.Ceil(cfg.MinWindowSuccess * float64(len(windows))))
			}
			if ok := len(windows) - len(failed); ok < need {
				return nil, fmt.Errorf("mining: best effort abandoned: only %d of %d windows succeeded, need %d: %w",
					ok, len(windows), need, errors.Join(failed...))
			}
		}
	case RAG:
		chunks, err := textenc.Chunks(enc, cfg.RAGChunkTokens)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		embedder, err := embedding.NewHashing(cfg.EmbedDim)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		store, err := vectorstore.New(cfg.EmbedDim)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		for _, ch := range chunks {
			if _, err := store.Add(ch.Text, embedder.Embed(ch.Text), nil); err != nil {
				return nil, fmt.Errorf("mining: %w", err)
			}
			res.IndexSeconds += float64(ch.TokenCount()) / embedTokensPerSecond
		}
		// Phase 1 of the RAG prompting (§3.1.2): the rule request itself is
		// the retrieval query.
		query := prompt.RuleGeneration(cfg.Mode, "")
		hits, err := store.Search(embedder.Embed(query), cfg.RAGTopK, nil)
		if err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		var retrieved string
		for _, h := range hits {
			retrieved += h.Doc.Text + "\n"
		}
		res.Windows = 1
		p := prompt.RuleGenerationWithExclusions(cfg.Mode, retrieved, cfg.ExcludeRules)
		resp, err := llm.CompleteCtx(ctx, model, p)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			// RAG has exactly one completion; losing it fails the success
			// floor under every policy.
			return nil, fmt.Errorf("mining: RAG completion failed after %d attempt(s): %w",
				resilience.Attempts(err), err)
		}
		res.MiningSeconds += resp.SimSeconds
		for rank, nl := range llm.ParseRuleLines(resp.Text) {
			record(nl, 0, rank)
		}
	default:
		return nil, fmt.Errorf("mining: unknown method %d", cfg.Method)
	}

	// ---- Merge: combine per-window rules into one set (§3.1.1) ----
	// Each call's answer is rank-ordered by the model's own preference, so
	// the merge scores every rule Borda-style: a rule gains 1/(1+rank) per
	// window that proposed it. Rules the model puts first in a few windows
	// compete with rules it mentions late everywhere; the merged set is
	// capped at the model's rule budget.
	sort.SliceStable(order, func(i, j int) bool {
		return seen[order[i]].borda > seen[order[j]].borda
	})
	budget := ruleBudget(cfg.Model, cfg.Mode == prompt.FewShot)
	if len(order) > budget {
		order = order[:budget]
	}

	// ---- Step 2: Cypher translation, correction and scoring ----
	schema := graph.ExtractSchema(g)
	schemaText := schema.Describe()
	var mined []MinedRule
	var finals []rules.QuerySet
	var scoreIdx []int // finals[i] scores mined[scoreIdx[i]]
	for _, key := range order {
		sr := seen[key]
		mr := MinedRule{NL: sr.rule.NL(), Rule: sr.rule, Windows: sr.windows}

		p := prompt.CypherTranslation(mr.NL, schemaText)
		resp, err := llm.CompleteCtx(ctx, model, p)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if cfg.FailurePolicy == FailFast {
				return nil, fmt.Errorf("mining: translation of %q failed after %d attempt(s): %w",
					mr.NL, resilience.Attempts(err), err)
			}
			// BestEffort keeps the rule, unscored, with the failure on
			// record: the NL rule was mined even if its Cypher was lost.
			mr.TranslateErr = err
			mined = append(mined, mr)
			continue
		}
		res.TranslationSeconds += resp.SimSeconds
		qs, ok := llm.ParseQuerySet(resp.Text)
		if !ok {
			// The model declined; skip the rule entirely (it never reaches
			// the tables, matching the paper's dropped rules).
			continue
		}
		mr.Generated = qs
		rep := correction.Analyze(qs, schema)
		mr.Category = rep.Category
		mr.Lint = rep.All()
		res.CypherTotal++
		if mr.Category == correction.Correct {
			res.CypherCorrect++
		}
		res.ErrorCounts[mr.Category]++
		for _, d := range mr.Lint {
			res.LintCounts[d.Analyzer]++
		}
		mr.Final, mr.Corrected = correction.Fix(qs, sr.rule, mr.Category)
		mined = append(mined, mr)
		finals = append(finals, mr.Final)
		scoreIdx = append(scoreIdx, len(mined)-1)
	}

	// Cross-query lint: duplicate rules that slipped past the NL-level
	// dedup (same query patterns up to variable renaming), support queries
	// that don't contain their body pattern, and head/body variable-naming
	// drift; findings are censused with the per-query ones by analyzer.
	entries := make([]lint.RuleSetEntry, len(mined))
	for i := range mined {
		entries[i] = lint.RuleSetEntry{
			Name:    mined[i].NL,
			Support: mined[i].Final.Support,
			Body:    mined[i].Final.Body,
			Head:    mined[i].Final.HeadTotal,
		}
	}
	for _, f := range lint.RuleSetLint(entries) {
		mined[f.Index].Lint = append(mined[f.Index].Lint, f.Diag)
		res.LintCounts[f.Diag.Analyzer]++
	}

	// Score all corrected query sets through one shared executor (and plan
	// cache), cfg.ScoreWorkers at a time; output order is the rule order.
	counts, evalErrs := metrics.EvaluateQuerySetsCtx(ctx, g, finals,
		metrics.EvalOptions{Workers: cfg.ScoreWorkers, ExecOptions: cfg.ExecOptions,
			MaxRows: cfg.MaxRows, MemoryBudget: cfg.MemoryBudget,
			QueryDeadline: cfg.QueryDeadline, Admission: cfg.Admission})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var scores []metrics.Score
	for fi, mi := range scoreIdx {
		mr := &mined[mi]
		if evalErrs[fi] != nil {
			mr.EvalErr = evalErrs[fi]
			continue
		}
		mr.Score = metrics.Score{
			Rule:       mr.Rule,
			Counts:     counts[fi],
			Coverage:   counts[fi].Coverage(),
			Confidence: counts[fi].Confidence(),
		}
		scores = append(scores, mr.Score)
	}
	res.Rules = mined
	res.Aggregate = metrics.Aggregated(scores)
	if stack != nil {
		st := stack.Stats()
		res.Resilience = &st
	}
	res.WallClock = time.Since(start)
	return res, nil
}

// windowOutcome is one window's completion result; exactly one of resp /
// err is meaningful.
type windowOutcome struct {
	resp llm.Response
	err  error
}

// completeWindows runs the step-1 completions, cfg.Parallel at a time,
// returning per-window outcomes in window order. Every window is attempted
// even when earlier ones fail — the caller's failure policy decides what
// the failures mean, and a FailFast abort can then report all of them
// instead of an arbitrary first. Only context cancellation stops the
// schedule early, and it is the only error this function itself returns.
func completeWindows(ctx context.Context, cfg Config, model llm.Model, windows []textenc.Window) ([]windowOutcome, error) {
	outcomes := make([]windowOutcome, len(windows))
	complete := func(i int) {
		p := prompt.RuleGenerationWithExclusions(cfg.Mode, windows[i].Text, cfg.ExcludeRules)
		outcomes[i].resp, outcomes[i].err = llm.CompleteCtx(ctx, model, p)
	}
	if cfg.Parallel <= 1 {
		for i := range windows {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			complete(i)
		}
	} else {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			next int
		)
		for n := 0; n < cfg.Parallel; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					mu.Lock()
					if next >= len(windows) {
						mu.Unlock()
						return
					}
					i := next
					next++
					mu.Unlock()
					complete(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return outcomes, nil
}

// TotalSimSeconds returns the full simulated pipeline latency.
func (r *Result) TotalSimSeconds() float64 {
	return r.MiningSeconds + r.TranslationSeconds + r.IndexSeconds
}
