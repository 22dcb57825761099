// Package graphrules is a complete Go implementation of the pipeline from
// "Graph Consistency Rule Mining with LLMs: an Exploratory Study" (EDBT
// 2025): mining data-quality rules for property graphs with a large
// language model, scoring them with AMIE-style support / coverage /
// confidence, and auto-correcting the LLM's generated Cypher.
//
// The package is a curated facade over the implementation packages:
//
//   - graph: the in-memory property-graph store
//   - cypher: the embedded Cypher execution engine (the Neo4j stand-in)
//   - textenc: graph-to-text encoders, sliding windows, RAG chunks
//   - llm: the deterministic simulated LLaMA-3 / Mixtral models
//   - rules, metrics, correction: the rule model and its evaluation
//   - mining: the end-to-end pipeline
//   - datasets: the paper's three evaluation graphs
//   - baseline: a classical AMIE-style comparator
//   - storage: snapshots, JSON, CSV and WAL persistence
//
// Quickstart:
//
//	g := graphrules.Dataset("WWC2019", graphrules.DefaultDatasetOptions())
//	res, err := graphrules.Mine(g, graphrules.MiningConfig{
//		Model: graphrules.NewSimModel(graphrules.LLaMA3(), 42),
//	})
//	for _, r := range res.Rules {
//		fmt.Println(r.NL, r.Score.Confidence)
//	}
package graphrules

import (
	"context"
	"io"
	"time"

	"github.com/graphrules/graphrules/internal/baseline"
	"github.com/graphrules/graphrules/internal/correction"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/metrics"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
	"github.com/graphrules/graphrules/internal/resilience"
	"github.com/graphrules/graphrules/internal/rules"
	"github.com/graphrules/graphrules/internal/storage"
)

// Graph model.
type (
	// Graph is an in-memory property graph.
	Graph = graph.Graph
	// Node is a labeled vertex with properties.
	Node = graph.Node
	// Edge is a directed, labeled relationship with properties.
	Edge = graph.Edge
	// Value is a dynamically typed property value.
	Value = graph.Value
	// Props maps property keys to values.
	Props = graph.Props
	// Schema is an extracted structural summary of a graph.
	Schema = graph.Schema
)

// NewGraph returns an empty property graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Value constructors.
var (
	// NullValue is the null property value.
	NullValue = graph.Null
)

// NewBoolValue wraps a boolean property value.
func NewBoolValue(b bool) Value { return graph.NewBool(b) }

// NewIntValue wraps an integer property value.
func NewIntValue(i int64) Value { return graph.NewInt(i) }

// NewFloatValue wraps a floating-point property value.
func NewFloatValue(f float64) Value { return graph.NewFloat(f) }

// NewStringValue wraps a string property value.
func NewStringValue(s string) Value { return graph.NewString(s) }

// ExtractSchema summarizes a graph's labels, properties and endpoints.
func ExtractSchema(g *Graph) *Schema { return graph.ExtractSchema(g) }

// MVCC epochs and change feeds.
type (
	// GraphDelta summarizes one committed epoch: the ops applied and which
	// (label, property-key) / (type, property-key) pairs they touched. It
	// is what OnCommit subscribers and the metric maintainer consume.
	GraphDelta = graph.Delta
	// GraphBatch buffers mutations and commits them as one atomic epoch
	// (all-or-nothing, one delta, one subscriber notification).
	GraphBatch = graph.Batch
)

// NewBatch opens a mutation batch on g; see GraphBatch.
func NewBatch(g *Graph) *GraphBatch { return g.NewBatch() }

// SnapshotOf returns a frozen point-in-time view of g: reads see exactly
// the epoch current at the call, concurrent commits never move it, and
// mutating it panics. Snapshots are cheap (shallow map copies, cached per
// epoch) — take one per scan, not one per read.
func SnapshotOf(g *Graph) *Graph { return g.Snapshot() }

// OnGraphCommit subscribes fn to g's committed epochs; fn runs on the
// commit path before the next writer can commit, in subscription order.
// The returned cancel detaches it.
func OnGraphCommit(g *Graph, fn func(*GraphDelta)) (cancel func()) { return g.OnCommit(fn) }

// Write-ahead logging and crash recovery.
type (
	// WAL is a write-ahead log of graph mutations, with optional group
	// commit (batched fsync) via NewGroupWAL.
	WAL = storage.WAL
	// WALRecord is one logged mutation (or commit marker).
	WALRecord = storage.Record
	// LoggedGraph pairs a graph with a WAL: every mutation is applied,
	// logged, and made durable (Commit barrier) before the call returns.
	LoggedGraph = storage.LoggedGraph
	// RecoveryInfo reports what RecoverWAL salvaged from a damaged log.
	RecoveryInfo = storage.RecoveryInfo
	// WALPoisonedError is a WAL's typed sticky error after a storage
	// fault: durability can no longer be promised past its Durable
	// sequence number. The graph keeps serving; ReattachWAL resumes
	// durable logging on a fresh sink.
	WALPoisonedError = storage.WALPoisonedError
	// FaultSink wraps a WAL sink with deterministic, schedulable storage
	// faults (short writes, fsync errors, ENOSPC, latency) for chaos
	// testing durability guarantees.
	FaultSink = storage.FaultSink
)

// NewWAL wraps w as an eager write-ahead log (flush + sync per append).
func NewWAL(w io.Writer) *WAL { return storage.NewWAL(w) }

// NewGroupWAL wraps w as a group-commit write-ahead log: appends buffer,
// a background flusher syncs every window, and Commit() barriers until
// the caller's records are durable. window <= 0 flushes only on demand.
func NewGroupWAL(w io.Writer, window time.Duration) *WAL {
	return storage.NewGroupWAL(w, window)
}

// NewLoggedGraph pairs g with wal; see LoggedGraph.
func NewLoggedGraph(g *Graph, wal *WAL) *LoggedGraph { return storage.NewLoggedGraph(g, wal) }

// AttachWAL subscribes wal to g's commit stream: every committed epoch is
// appended (with its commit marker) from the commit path. The returned
// detach unsubscribes.
func AttachWAL(g *Graph, wal *WAL) (detach func()) { return storage.AttachWAL(g, wal) }

// RecoverWAL rebuilds a graph from a possibly torn log, applying exactly
// the epochs closed by a commit marker and reporting what was discarded.
func RecoverWAL(name string, r io.Reader) (*Graph, RecoveryInfo, error) {
	return storage.RecoverReplay(name, r)
}

// ReattachWAL resumes durable logging after a WAL was poisoned by a
// storage fault: it writes g's full state into wal as a bootstrap epoch,
// waits for durability, then attaches the commit subscription — the new
// log alone recovers everything. Quiesce writers until it returns.
func ReattachWAL(g *Graph, wal *WAL) (detach func(), err error) {
	return storage.ReattachWAL(g, wal)
}

// NewFaultSink wraps w with a seeded deterministic fault injector; see
// FaultSink.
func NewFaultSink(w io.Writer, seed int64) *FaultSink { return storage.NewFaultSink(w, seed) }

// Query engine.
type (
	// Executor runs Cypher queries against a graph.
	Executor = cypher.Executor
	// QueryResult is the outcome of one query.
	QueryResult = cypher.Result
	// ExecStats instruments one query execution (rows scanned, index
	// seeks, plan-cache hit, per-clause timings).
	ExecStats = cypher.ExecStats
	// PlanCacheStats reports an executor's prepared-query cache counters.
	PlanCacheStats = cypher.PlanCacheStats
	// ExecutorOption configures an Executor at construction
	// (NewExecutor(g, WithPlanCacheCap(256), ...)).
	ExecutorOption = cypher.Option
	// SeekInfo describes one index seek of an executed or explained query:
	// variable, label/type, key, bounds, and estimated vs actual rows.
	SeekInfo = cypher.SeekInfo
)

// NewExecutor returns a Cypher executor bound to g, configured by opts.
func NewExecutor(g *Graph, opts ...ExecutorOption) *Executor {
	return cypher.NewExecutor(g, opts...)
}

// Executor construction options (see the cypher package for the full set).
var (
	// WithReorder toggles cost-based reordering of match parts.
	WithReorder = cypher.WithReorder
	// WithIndexPushdown toggles the label+property equality index.
	WithIndexPushdown = cypher.WithIndexPushdown
	// WithRangePushdown toggles ordered-index range seeks for inequality,
	// interval and STARTS WITH predicates.
	WithRangePushdown = cypher.WithRangePushdown
	// WithPlanCacheCap bounds the prepared-plan cache to n entries (LRU
	// eviction); n <= 0 keeps the default cap.
	WithPlanCacheCap = cypher.WithPlanCacheCap
	// WithSnapshotPin pins each read-only query to the epoch current at
	// its start, so concurrent commits never change what one scan sees.
	WithSnapshotPin = cypher.WithSnapshotPin
	// WithMaxRows caps the rows one query may materialize; exceeding it
	// kills the query with a *ResourceExhaustedError (0 disables).
	WithMaxRows = cypher.WithMaxRows
	// WithMemoryBudget bounds a query's approximate retained allocation
	// in bytes (0 disables).
	WithMemoryBudget = cypher.WithMemoryBudget
	// WithQueryDeadline bounds a query's wall-clock time, enforced
	// cooperatively with typed errors (0 disables).
	WithQueryDeadline = cypher.WithQueryDeadline
	// WithAdmission gates every query through an admission controller
	// (NewGovernor provides one; nil disables).
	WithAdmission = cypher.WithAdmission
)

// Resource governance: per-query budgets and admission control.
type (
	// ResourceExhaustedError reports a query killed by a resource budget
	// (rows, memory or deadline), carrying the partial ExecStats.
	ResourceExhaustedError = cypher.ResourceExhaustedError
	// QueryPanicError is an evaluator panic recovered into an error —
	// the query fails, the process survives.
	QueryPanicError = cypher.PanicError
	// Admission is the contract between the executor and an admission
	// controller; *Governor implements it.
	Admission = cypher.Admission
	// Governor bounds concurrent query execution with a FIFO wait queue,
	// queue timeout, and typed rejections.
	Governor = governor.Governor
	// GovernorConfig tunes a Governor (concurrency limit, queue bound,
	// queue timeout).
	GovernorConfig = governor.Config
	// GovernorStats snapshots a Governor's admission counters
	// (admitted/queued/rejected/active/peak, completions vs budget kills).
	GovernorStats = governor.Stats
	// AdmissionRejectedError is the typed backpressure signal for a
	// rejected (queue-full / timed-out / cancelled) query.
	AdmissionRejectedError = governor.AdmissionRejectedError
)

// NewGovernor returns an admission controller with the given limits; pass
// it to NewExecutor via WithAdmission.
func NewGovernor(cfg GovernorConfig) *Governor { return governor.New(cfg) }

// Transport-agnostic query sessions: streamed results under caller flow
// control plus explicit transactions. This is the API the Bolt server
// (cmd/graphd) and the cypher REPL are built on.
type (
	// QuerySession is a stateful query channel over one executor: Run
	// returns a QueryCursor streaming records as the engine produces
	// them, and Begin/Commit/Rollback bracket explicit single-writer
	// transactions with snapshot rollback. One in-flight cursor at a
	// time; not safe for concurrent use.
	QuerySession = cypher.Session
	// QueryCursor iterates one result set: Next / Record / Columns /
	// Err / Close / Summary. Closing early cancels the producing query.
	QueryCursor = cypher.Cursor
)

// Session-state errors returned by QuerySession methods.
var (
	// ErrSessionClosed reports use of a closed QuerySession.
	ErrSessionClosed = cypher.ErrSessionClosed
	// ErrTxOpen reports Begin while a transaction is already open.
	ErrTxOpen = cypher.ErrTxOpen
	// ErrNoTx reports Commit/Rollback without an open transaction.
	ErrNoTx = cypher.ErrNoTx
)

// OpenSession builds an executor over g configured by opts and opens a
// query session on it. For several sessions sharing one executor (and
// its plan cache, budgets and admission), call NewExecutor once and use
// Executor.OpenSession per connection instead.
func OpenSession(g *Graph, opts ...ExecutorOption) *QuerySession {
	return cypher.NewExecutor(g, opts...).OpenSession()
}

// QueryFootprint over-approximates the labels, edge types and property
// keys a query's result can depend on; intersected with a GraphDelta it
// answers "can this epoch have changed this query's result?".
type QueryFootprint = cypher.Footprint

// FootprintOf parses a query and extracts its footprint.
func FootprintOf(src string) (*QueryFootprint, error) { return cypher.FootprintOf(src) }

// GraphStats summarizes a graph's size and connectivity.
type GraphStats = graph.Stats

// ComputeStats scans a graph and summarizes it.
func ComputeStats(g *Graph) *GraphStats { return graph.ComputeStats(g) }

// Rules and metrics.
type (
	// Rule is one consistency rule.
	Rule = rules.Rule
	// RuleCounts are the raw support/body/head counts of one evaluation.
	RuleCounts = rules.Counts
	// Score is one rule's support/coverage/confidence evaluation.
	Score = metrics.Score
	// ErrorCategory classifies generated Cypher per the paper's §4.4.
	ErrorCategory = correction.Category
)

// Scorer evaluates rules through one shared executor and plan cache; it
// is safe for concurrent use.
type Scorer = metrics.Scorer

// NewScorer returns a rule scorer bound to g; opts configure its shared
// executor (e.g. WithPlanCacheCap(256)).
func NewScorer(g *Graph, opts ...ExecutorOption) *Scorer { return metrics.NewScorer(g, opts...) }

// Incremental metric maintenance.
type (
	// Maintainer keeps a rule set's metric scores current as the graph
	// evolves: each committed epoch re-scores only the rules whose query
	// footprint the epoch's delta intersects (O(delta), not O(rules)).
	Maintainer = metrics.Maintainer
	// MaintainedScore is a maintained rule's current score plus its
	// sticky evaluation error, if any.
	MaintainedScore = metrics.MaintainedScore
	// MaintainerStats counts applied epochs and rescored/skipped rules.
	MaintainerStats = metrics.MaintainerStats
)

// NewMaintainer scores rs in full once and returns a maintainer that
// keeps the scores exact incrementally; call Attach to subscribe it to
// g's commit stream. Options configure the shared scoring executor.
func NewMaintainer(g *Graph, rs []Rule, opts ...ExecutorOption) *Maintainer {
	return metrics.NewMaintainer(g, rs, opts...)
}

// NewMaintainerCtx is NewMaintainer with the initial full scoring bound
// to ctx; pair it with Maintainer.AttachCtx to bound commit-path
// re-scoring too.
func NewMaintainerCtx(ctx context.Context, g *Graph, rs []Rule, opts ...ExecutorOption) *Maintainer {
	return metrics.NewMaintainerCtx(ctx, g, rs, opts...)
}

// ParseRuleNL parses a natural-language rule statement.
func ParseRuleNL(line string) (Rule, bool) { return rules.ParseNL(line) }

// EvaluateRule scores a rule on a graph via its reference Cypher.
func EvaluateRule(g *Graph, r Rule) (Score, error) { return metrics.EvaluateRule(g, r) }

// EvaluateRules scores a rule list serially; failed rules land in the
// second return value.
func EvaluateRules(g *Graph, rs []Rule) ([]Score, []error) { return metrics.EvaluateRules(g, rs) }

// EvaluateRulesParallel scores a rule list with a worker pool. Output
// order is the input order at any worker count; workers <= 0 selects
// GOMAXPROCS.
func EvaluateRulesParallel(g *Graph, rs []Rule, workers int) ([]Score, []error) {
	return metrics.EvaluateRulesParallel(g, rs, workers)
}

// EvaluateRulesParallelCtx is EvaluateRulesParallel with cancellation: a
// done context stops dispatching and aborts in-flight metric queries.
func EvaluateRulesParallelCtx(ctx context.Context, g *Graph, rs []Rule, workers int) ([]Score, []error) {
	return metrics.EvaluateRulesParallelCtx(ctx, g, rs, workers)
}

// Models.
type (
	// Model is a language model (prompt in, completion out).
	Model = llm.Model
	// ModelProfile calibrates a simulated model.
	ModelProfile = llm.Profile
	// SimModel is a deterministic simulated LLM.
	SimModel = llm.SimModel
)

// LLaMA3 returns the LLaMA-3 behavioural profile.
func LLaMA3() ModelProfile { return llm.LLaMA3() }

// Mixtral returns the Mixtral behavioural profile.
func Mixtral() ModelProfile { return llm.Mixtral() }

// NewSimModel returns a simulated model with the given profile and seed.
func NewSimModel(p ModelProfile, seed int64) *SimModel { return llm.NewSim(p, seed) }

// Mining pipeline.
type (
	// MiningConfig parameterizes one pipeline run.
	MiningConfig = mining.Config
	// MiningResult is the outcome of one pipeline run.
	MiningResult = mining.Result
	// MinedRule is one rule's journey through the pipeline.
	MinedRule = mining.MinedRule
	// Method selects sliding-window or RAG encoding delivery.
	Method = mining.Method
	// PromptMode selects zero-shot or few-shot prompting.
	PromptMode = prompt.Mode
	// FailurePolicy selects how Mine treats window-level LLM failures.
	FailurePolicy = mining.FailurePolicy
	// WindowError records one window whose completion ultimately failed.
	WindowError = mining.WindowError
	// ResilienceConfig configures the middleware stack Mine installs
	// around the model (retries, per-call timeout, circuit breaker, rate
	// limit); set it on MiningConfig.Resilience.
	ResilienceConfig = resilience.Config
	// ResilienceStats snapshots the per-layer middleware counters of a
	// resilient run (MiningResult.Resilience).
	ResilienceStats = resilience.StackStats
)

// Pipeline method and prompting constants.
const (
	SlidingWindow = mining.SlidingWindow
	RAG           = mining.RAG
	ZeroShot      = prompt.ZeroShot
	FewShot       = prompt.FewShot
	// FailFast aborts a run when any window's completion fails.
	FailFast = mining.FailFast
	// BestEffort mines from surviving windows, recording the failures.
	BestEffort = mining.BestEffort
)

// Mine runs the full rule-mining pipeline on a graph.
func Mine(g *Graph, cfg MiningConfig) (*MiningResult, error) { return mining.Mine(g, cfg) }

// MineCtx is Mine with cancellation: a done context aborts in-flight LLM
// calls and metric queries and returns ctx.Err() promptly.
func MineCtx(ctx context.Context, g *Graph, cfg MiningConfig) (*MiningResult, error) {
	return mining.MineCtx(ctx, g, cfg)
}

// Session supports interactive rule refinement (accept / reject / refine).
type Session = mining.Session

// NewSession mines an initial rule set and opens a review session.
func NewSession(g *Graph, cfg MiningConfig) (*Session, error) { return mining.NewSession(g, cfg) }

// NewSessionCtx is NewSession with cancellation for the initial round.
func NewSessionCtx(ctx context.Context, g *Graph, cfg MiningConfig) (*Session, error) {
	return mining.NewSessionCtx(ctx, g, cfg)
}

// RuleViolations renders a Cypher query listing the elements violating a
// rule (at most limit rows; limit <= 0 means 25).
func RuleViolations(r Rule, limit int) (string, error) { return rules.Violations(r, limit) }

// ExplainRule renders a domain-expert-facing rationale for a rule and its
// evaluated counts.
func ExplainRule(r Rule, c RuleCounts) string { return rules.Explain(r, c) }

// Datasets.
type (
	// DatasetOptions configures dataset generation.
	DatasetOptions = datasets.Options
)

// DefaultDatasetOptions returns the benchmark harness defaults.
func DefaultDatasetOptions() DatasetOptions { return datasets.DefaultOptions() }

// DatasetNames lists the paper's datasets.
func DatasetNames() []string { return datasets.Names() }

// Dataset generates one of the paper's datasets by name; it panics on an
// unknown name (use datasets.ByName for error handling).
func Dataset(name string, opts DatasetOptions) *Graph {
	gen, err := datasets.ByName(name)
	if err != nil {
		panic(err)
	}
	return gen(opts)
}

// Baseline miner.
type (
	// BaselineConfig controls the classical miner's pruning.
	BaselineConfig = baseline.Config
	// BaselineResult is the classical miner's output.
	BaselineResult = baseline.Result
)

// BaselineMine runs the AMIE-style comparator on a graph.
func BaselineMine(g *Graph, cfg BaselineConfig) (*BaselineResult, error) {
	return baseline.Mine(g, cfg)
}
