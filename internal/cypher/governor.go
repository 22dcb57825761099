package cypher

// This file implements the per-query resource governor: cooperative
// budgets enforced inside the executor so one runaway query (an unbounded
// cartesian product, a pathological variable-length expansion) degrades
// into a typed error instead of taking the process down. Three budgets
// exist — a materialized-row cap, an approximate memory budget, and a
// per-query deadline — all configured as executor options (WithMaxRows,
// WithMemoryBudget, WithQueryDeadline) and all enforced at the same
// amortized cadence as the existing context polls, so an ungoverned
// executor pays nothing and a governed one pays one nil check per
// allocation site.
//
// Budgets never change the result of a query that finishes under
// them — enforcement only ever truncates with a typed error, which the
// differential oracle pins (TestBudgetedOracle).

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ResourceExhaustedError reports a query killed by its resource budget.
// It carries the execution stats accumulated up to the kill, so callers
// (and the REPL's profile command) can see how much work the query did
// before it hit the wall.
type ResourceExhaustedError struct {
	// Resource names the exhausted budget: "rows", "memory" or "deadline".
	Resource string
	// Limit is the configured budget (rows, bytes, or nanoseconds).
	Limit int64
	// Used is the consumption observed at the kill. For "deadline" it is
	// the elapsed nanoseconds when the poll fired.
	Used int64
	// Stats are the partial execution stats at the kill: rows scanned,
	// seeks taken. Populated by ExecuteCtx on the way out.
	Stats ExecStats
}

func (e *ResourceExhaustedError) Error() string {
	switch e.Resource {
	case "deadline":
		return fmt.Sprintf("cypher: query exceeded its %s deadline (ran %s)",
			time.Duration(e.Limit), time.Duration(e.Used).Round(time.Millisecond))
	case "memory":
		return fmt.Sprintf("cypher: query exceeded its %d-byte memory budget (reached %d bytes)", e.Limit, e.Used)
	default:
		return fmt.Sprintf("cypher: query exceeded its %d-row budget (reached %d rows)", e.Limit, e.Used)
	}
}

// ResourceExhausted marks the error as a budget kill; admission
// controllers use it (via errors.As) to count kills separately from
// ordinary failures without importing this package's types.
func (e *ResourceExhaustedError) ResourceExhausted() bool { return true }

// PanicError is a recovered evaluator panic converted to an error: a bug
// in an expression or matcher path surfaces as a failed query — with the
// panic value and stack for the report — instead of crashing the process.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cypher: internal panic during execution: %v", e.Value)
}

// recoverToError converts a recovered panic value into a *PanicError.
func recoverToError(p any) error {
	return &PanicError{Value: p, Stack: string(debug.Stack())}
}

// Admission gates query execution: ExecuteCtx calls Admit before running
// and the returned done func exactly once after, with the query's final
// error. An admission controller bounds concurrency and queueing
// (internal/governor provides one); Admit returning an error rejects the
// query before it touches the graph.
type Admission interface {
	Admit(ctx context.Context) (done func(err error), err error)
}

// budget is one execution's resource-budget state. A query executes on one
// goroutine, so the counters are plain integers.
type budget struct {
	maxRows int64     // > 0 enables the row cap
	maxMem  int64     // > 0 enables the memory budget
	start   time.Time // execution start, for deadline accounting
	limit   time.Duration
	rows    int64
	mem     int64
}

// newBudget builds the execution budget, or nil when no limit is set
// (the nil receiver makes every charge a single comparison).
func (ex *Executor) newBudget() *budget {
	if ex.maxRows <= 0 && ex.memBudget <= 0 && ex.queryDeadline <= 0 {
		return nil
	}
	b := &budget{maxRows: int64(ex.maxRows), maxMem: ex.memBudget, limit: ex.queryDeadline}
	if b.limit > 0 {
		b.start = time.Now()
	}
	return b
}

// chargeRows accounts n materialized rows against the row cap.
func (b *budget) chargeRows(n int) error {
	if b == nil || b.maxRows <= 0 {
		return nil
	}
	b.rows += int64(n)
	if b.rows > b.maxRows {
		return &ResourceExhaustedError{Resource: "rows", Limit: b.maxRows, Used: b.rows}
	}
	return nil
}

// chargeMem accounts approximately n bytes of retained allocation
// against the memory budget.
func (b *budget) chargeMem(n int64) error {
	if b == nil || b.maxMem <= 0 {
		return nil
	}
	b.mem += n
	if b.mem > b.maxMem {
		return &ResourceExhaustedError{Resource: "memory", Limit: b.maxMem, Used: b.mem}
	}
	return nil
}

// checkDeadline reports a deadline kill. Callers amortize it on the same
// stride as context polls; it costs one time.Now when armed.
func (b *budget) checkDeadline() error {
	if b == nil || b.limit <= 0 {
		return nil
	}
	if elapsed := time.Since(b.start); elapsed > b.limit {
		return &ResourceExhaustedError{Resource: "deadline", Limit: int64(b.limit), Used: int64(elapsed)}
	}
	return nil
}

// rowBytes estimates the retained size of one materialized row: the map
// header plus one bucket entry (string header + datum) per binding. A
// deliberate over-approximation on the cheap side — the budget bounds
// order-of-magnitude blowups, not byte-exact accounting.
func rowBytes(r Row) int64 { return 48 + int64(len(r))*64 }

// chargeRow accounts one materialized row (count and approximate bytes).
func (b *budget) chargeRow(r Row) error {
	if b == nil {
		return nil
	}
	if err := b.chargeRows(1); err != nil {
		return err
	}
	return b.chargeMem(rowBytes(r))
}

// aggStateBytes is the approximate retained cost charged per element a
// collect()/DISTINCT aggregate state accumulates.
const aggStateBytes = 48

// bud returns the evaluation context's budget (nil when ungoverned or
// when the context was built without a matcher); every budget method is
// nil-receiver safe, so callers charge unconditionally.
func (c *evalCtx) bud() *budget {
	if c == nil || c.matcher == nil {
		return nil
	}
	return c.matcher.bud
}

// finishExhausted stamps the partial execution stats into a budget-kill
// error on the way out of ExecuteCtx, so the typed error is self-contained
// even when the caller drops the Result.
func finishExhausted(err error, res *Result) {
	var re *ResourceExhaustedError
	if errors.As(err, &re) && res != nil {
		re.Stats = res.Exec
	}
}
