package cypher

import "time"

// Option configures an Executor at construction:
//
//	ex := cypher.NewExecutor(g,
//		cypher.WithPlanCacheCap(256),
//		cypher.WithRangePushdown(false),
//	)
//
// Options are the one place executor knobs are defined; the graphrules
// facade and mining.Config forward []Option verbatim, so every knob here
// is reachable from every API layer.
type Option func(*Executor)

// WithIndexPushdown toggles index pushdown (on by default): the predicates
// sarg.go classifies become index seeks. Disabling it turns every seek off
// — equality, IN, range, prefix and edge-derived anchors — so anchors scan
// label buckets or all nodes.
func WithIndexPushdown(on bool) Option {
	return func(ex *Executor) { ex.noPushdown = !on }
}

// WithRangePushdown toggles the ordered-index range pushdown (on by
// default): inequality and STARTS WITH conjuncts in WHERE become range
// seeks, for node and edge anchors alike. Equality and IN seeks do not
// depend on it.
func WithRangePushdown(on bool) Option {
	return func(ex *Executor) { ex.noRangePushdown = !on }
}

// WithReorder toggles cost-based pattern-part ordering (on by default).
// Disabling it pins the written part order and orientation, which also pins
// the serial row order — the differential oracle's reference mode.
func WithReorder(on bool) Option {
	return func(ex *Executor) { ex.noReorder = !on }
}

// WithPlanCacheCap bounds the plan cache to n entries, evicting
// least-recently-used plans beyond the cap. n <= 0 keeps the default cap.
func WithPlanCacheCap(n int) Option {
	return func(ex *Executor) { ex.setPlanCacheCap(n) }
}

// WithMaxRows caps the number of rows one query may keep or emit: rows an
// operator buffers (sort, DISTINCT keys, groups, the input of a write) and
// result rows. Rows that only stream through are not counted, so a
// counting product (of MATCH parts or UNWINDs) is bounded by
// WithQueryDeadline and cancellation, which the matcher and UNWIND poll.
// Exceeding it kills the query with a *ResourceExhaustedError carrying the
// partial ExecStats. n <= 0 disables the cap (default).
// A query that finishes under the cap is byte-identical to ungoverned.
func WithMaxRows(n int) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.maxRows = n
	}
}

// WithMemoryBudget bounds a query's approximate retained allocation: the
// rows WithMaxRows counts and collect()/DISTINCT aggregate elements charge
// an estimated byte cost against the budget as they are kept. The accounting is
// deliberately coarse — it bounds order-of-magnitude blowups (runaway
// cartesian products, unbounded collect()) rather than exact footprints.
// n <= 0 disables the budget (default).
func WithMemoryBudget(n int64) Option {
	return func(ex *Executor) {
		if n < 0 {
			n = 0
		}
		ex.memBudget = n
	}
}

// WithQueryDeadline bounds one query's wall-clock execution time,
// enforced cooperatively on the same amortized stride as context polls.
// Unlike a context deadline it needs no timer goroutine per query and
// reports a typed *ResourceExhaustedError with partial stats rather than
// context.DeadlineExceeded. d <= 0 disables it (default).
func WithQueryDeadline(d time.Duration) Option {
	return func(ex *Executor) {
		if d < 0 {
			d = 0
		}
		ex.queryDeadline = d
	}
}

// WithAdmission gates every ExecuteCtx through an admission controller:
// Admit runs before the query touches the graph (its error — typically a
// typed rejection — is returned verbatim) and the returned done func is
// called with the query's final error, letting the controller classify
// completions vs budget kills. internal/governor provides the standard
// implementation. nil disables gating (default).
func WithAdmission(a Admission) Option {
	return func(ex *Executor) { ex.admission = a }
}

// WithSnapshotPin pins every read-only query to the graph epoch current
// when its execution starts: the scan runs against a frozen snapshot view,
// so concurrent epoch commits never change what one query observes
// mid-scan. Mutating queries (CREATE/SET/DELETE) always run on the live
// graph regardless of this option. Off by default — without concurrent
// writers the live graph is the same view for free.
func WithSnapshotPin(on bool) Option {
	return func(ex *Executor) { ex.snapshotPin = on }
}
