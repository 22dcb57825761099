package cypher

// Session is the transport-agnostic query API: the Bolt server
// (internal/bolt), the cypher REPL and library callers all consume the
// engine through it. A Session owns at most one live Cursor (starting a
// new run closes the previous one, mirroring Bolt's one-stream-per-
// connection discipline) and optionally one explicit transaction.
//
// Streaming: Run admits the query and returns a Cursor; the query runs on
// the goroutine that reads the cursor. The push pipeline (pipeline.go) is
// wrapped in iter.Pull, so Next resumes it until it emits its next row and
// a coroutine switch suspends it there: a slow consumer paces the scan
// and a result is never materialized. The columns come from the resolved
// RETURN clause at Run. Closing the cursor stops a read where it stands;
// a write runs to completion — Close discards its rows, not its effects.
//
// Admission: Run admits synchronously through the same gate as
// Executor.Run (Executor.admit) — callers see AdmissionRejectedError at
// Run — and the slot is released when the stream finishes (drained,
// failed, or closed), so governor counters track live streams, not just
// in-flight calls.
//
// Transactions: Begin takes the Executor's transaction lock exclusively,
// making explicit transactions single-writer across every session of the
// Executor; auto-commit mutating runs take it shared so they pair freely
// with each other but never interleave with an open transaction. Writes
// inside a transaction apply to the live graph immediately (readers on
// other sessions observe them — read-uncommitted, documented in
// DESIGN.md); Commit just publishes by releasing the lock, while
// Rollback compensates: every entity touched by the transaction (tracked
// via the graph's OnCommit deltas) is removed and its pre-transaction
// state restored from the Begin-time snapshot under the original IDs
// (graph.RestoreNode/RestoreEdge). Isolation holds only among writers
// that share the Executor (or at least its transaction lock).

import (
	"context"
	"errors"
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/graphrules/graphrules/internal/graph"
)

// Session errors, matched by transports to map onto protocol failures.
var (
	ErrSessionClosed    = errors.New("cypher: session is closed")
	ErrTxOpen           = errors.New("cypher: transaction already open")
	ErrNoTx             = errors.New("cypher: no open transaction")
	ErrCursorUnfinished = errors.New("cypher: cursor still streaming")
)

// Session is a stateful query channel over one Executor. Safe for
// sequential use; methods must not be called concurrently with each
// other (each network connection or REPL owns its own Session).
type Session struct {
	ex     *Executor
	mu     sync.Mutex
	cur    *Cursor
	tx     *sessionTx
	closed bool
}

// sessionTx is one open explicit transaction: the Begin-time snapshot,
// the commit-delta subscription capturing touched entity IDs, and the
// exclusive transaction-lock release.
type sessionTx struct {
	snap      *graph.Graph
	cancelSub func()
	unlock    func()

	mu    sync.Mutex // guards nodes/edges: OnCommit runs on the committing goroutine
	nodes map[graph.ID]bool
	edges map[graph.ID]bool
}

// OpenSession opens a session over the executor. Sessions share the
// executor's budgets, admission controller and transaction lock.
func (ex *Executor) OpenSession() *Session {
	return &Session{ex: ex}
}

// Run parses src, admits it and returns a Cursor that executes it as it
// is read. Parse errors, admission rejections and context errors surface
// here; execution errors (budget kills, evaluation failures) surface on the
// Cursor after the rows that preceded them. A previous unfinished Cursor
// on this session is closed first.
func (s *Session) Run(cctx context.Context, src string, params map[string]graph.Value) (*Cursor, error) {
	if cctx == nil {
		cctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.finishCursorLocked()

	q, hit, err := s.ex.plan(src)
	if err != nil {
		return nil, err
	}
	release, err := s.ex.admit(cctx, q, s.tx != nil)
	if err != nil {
		return nil, err
	}
	c := &Cursor{cols: q.columns(), write: QueryMutates(q), release: release}
	c.next, c.stop = iter.Pull(func(yield func([]Datum) bool) {
		growStack(0)
		res, err := s.ex.execute(cctx, q, params, func(row []Datum) error {
			if !yield(row) {
				return context.Canceled // Close stopped the cursor
			}
			return nil
		})
		if res != nil {
			res.Exec.PlanCacheHit = hit
		}
		c.res, c.err = res, err
		c.finish(err)
	})
	s.cur = c
	return c, nil
}

// finishCursorLocked closes the session's live cursor, if any, which
// frees its admission slot and lock hold.
func (s *Session) finishCursorLocked() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

// Begin opens an explicit transaction: it acquires the executor's
// transaction lock exclusively (honoring ctx while queueing behind other
// writers), snapshots the graph for rollback, and subscribes to commit
// deltas to track the transaction's write set.
func (s *Session) Begin(cctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.tx != nil {
		return ErrTxOpen
	}
	s.finishCursorLocked()
	unlock, err := s.ex.lockTx(cctx, false)
	if err != nil {
		return err
	}
	tx := &sessionTx{
		snap:   s.ex.g.Snapshot(),
		unlock: unlock,
		nodes:  map[graph.ID]bool{},
		edges:  map[graph.ID]bool{},
	}
	tx.cancelSub = s.ex.g.OnCommit(func(d *graph.Delta) {
		tx.mu.Lock()
		for _, id := range d.Nodes {
			tx.nodes[id] = true
		}
		for _, id := range d.Edges {
			tx.edges[id] = true
		}
		tx.mu.Unlock()
	})
	s.tx = tx
	return nil
}

// Commit publishes the open transaction. Writes were applied to the live
// graph as they executed, so commit is release-only: drop the delta
// subscription and the exclusive lock. An unfinished cursor is closed
// first so no transaction statement is still executing at release.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return ErrNoTx
	}
	s.finishCursorLocked()
	tx := s.tx
	s.tx = nil
	tx.cancelSub()
	tx.unlock()
	return nil
}

// Rollback undoes the open transaction: every entity its statements
// touched is removed and the pre-transaction state restored from the
// Begin-time snapshot, under the original IDs. The compensation commits
// as ordinary epochs, so WAL and other subscribers log a consistent
// history.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return ErrNoTx
	}
	s.finishCursorLocked()
	tx := s.tx
	s.tx = nil
	tx.cancelSub()
	err := s.ex.rollbackTx(tx)
	tx.unlock()
	return err
}

// InTx reports whether the session has an open explicit transaction.
func (s *Session) InTx() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// Close ends the session: the live cursor is closed and an open
// transaction rolled back. Further calls return ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.finishCursorLocked()
	if tx := s.tx; tx != nil {
		s.tx = nil
		tx.cancelSub()
		err := s.ex.rollbackTx(tx)
		tx.unlock()
		return err
	}
	return nil
}

// rollbackTx compensates one transaction's writes. Touched nodes are
// removed (cascading their current edges), then pre-transaction nodes
// are restored before edges so endpoints always exist. Untouched
// pre-transaction edges incident to a touched node are cascaded by the
// removal step, so they are restored too.
func (ex *Executor) rollbackTx(tx *sessionTx) error {
	g := ex.g
	snap := tx.snap
	tx.mu.Lock()
	nodes := sortedIDs(tx.nodes)
	edges := sortedIDs(tx.edges)
	tx.mu.Unlock()

	restoreEdges := map[graph.ID]bool{}
	for _, id := range edges {
		if snap.Edge(id) != nil {
			restoreEdges[id] = true
		}
	}
	for _, id := range nodes {
		if snap.Node(id) == nil {
			continue
		}
		for _, eid := range snap.OutEdges(id) {
			restoreEdges[eid] = true
		}
		for _, eid := range snap.InEdges(id) {
			restoreEdges[eid] = true
		}
	}

	for _, id := range nodes {
		if g.Node(id) != nil {
			g.RemoveNode(id)
		}
	}
	for _, id := range edges {
		if g.Edge(id) != nil {
			g.RemoveEdge(id)
		}
	}

	var firstErr error
	for _, id := range nodes {
		n := snap.Node(id)
		if n == nil {
			continue
		}
		if err := g.RestoreNode(n); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, id := range sortedIDs(restoreEdges) {
		e := snap.Edge(id)
		if e == nil || g.Edge(id) != nil {
			continue
		}
		if err := g.RestoreEdge(e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func sortedIDs(m map[graph.ID]bool) []graph.ID {
	ids := make([]graph.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// lockTx acquires the executor's transaction lock (shared or exclusive)
// while honoring ctx cancellation: acquisition runs on a helper
// goroutine and exactly one side — the caller or the helper — claims the
// outcome, so an abandoned acquisition releases the lock itself and
// nothing leaks.
func (ex *Executor) lockTx(cctx context.Context, shared bool) (func(), error) {
	lock, unlock := ex.txMu.Lock, ex.txMu.Unlock
	if shared {
		lock, unlock = ex.txMu.RLock, ex.txMu.RUnlock
	}
	if cctx == nil || cctx.Done() == nil {
		lock()
		return unlock, nil
	}
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	acquired := make(chan struct{})
	var claimed atomic.Bool
	go func() {
		lock()
		if claimed.CompareAndSwap(false, true) {
			close(acquired)
		} else {
			// Caller gave up while we queued; the lock is ours to release.
			unlock()
		}
	}()
	select {
	case <-acquired:
		return unlock, nil
	case <-cctx.Done():
		if claimed.CompareAndSwap(false, true) {
			return nil, cctx.Err()
		}
		// The helper won the claim race: the lock was acquired. Release
		// it and report the cancellation.
		<-acquired
		unlock()
		return nil, cctx.Err()
	}
}

// Cursor streams one run's rows. Next/Record/Err follow the database/sql
// idiom; Close stops the run and releases its resources. A Cursor is not
// safe for concurrent use.
type Cursor struct {
	next    func() ([]Datum, bool)
	stop    func()
	release func(error) // frees the slot and lock hold; nil once the run ended or Close ran
	cols    []string
	write   bool // a write runs to completion even when its cursor is closed unread

	cur    []Datum
	res    *Result
	err    error
	closed bool
}

// Next runs the query until it produces its next row, or to its end. It
// returns false at end of stream — check Err then.
func (c *Cursor) Next() bool {
	row, ok := c.next()
	c.cur = row
	return ok
}

// Record returns the current row. Valid after a true Next until the next
// Next call; the slice must not be retained across calls if mutated.
func (c *Cursor) Record() []Datum { return c.cur }

// Columns returns the result header: the columns of the query's RETURN.
func (c *Cursor) Columns() []string { return c.cols }

// Err returns the run's terminal error, or nil while streaming or after
// a clean finish. The stop caused by Close is not an error.
func (c *Cursor) Err() error {
	if c.closed && errors.Is(c.err, context.Canceled) {
		return nil
	}
	return c.err
}

// Close stops the run and releases its admission slot and lock hold. A
// write is first run up to its first row, by which point every write
// clause has applied (each buffers all its input rows), so Close discards
// a write's rows, not its effects. Closing a finished cursor is a no-op;
// Close returns Err.
func (c *Cursor) Close() error {
	if !c.closed {
		c.closed = true
		if c.write {
			c.next()
		}
		c.stop()
		c.finish(nil) // a no-op unless the run never started
	}
	return c.Err()
}

// finish releases the run's admission slot and lock hold, once.
func (c *Cursor) finish(err error) {
	if c.release != nil {
		c.release(err)
		c.release = nil
	}
}

// growStack makes a query's coroutine take its stack growth here, at the
// bottom of its stack, where copying is cheap. A point read otherwise
// outgrows the initial stack in the middle of evaluating WHERE, and the
// runtime then copies every matcher frame and scans eval's large frame
// table: a Session point read on the Twitter graph (2 vCPU) costs 13–17 µs
// without it and 9–10 µs with it.
//
//go:noinline
func growStack(i int) byte {
	var pad [8 << 10]byte
	return pad[i]
}

// Summary returns the run's Result (stats, profile, columns; Rows are
// nil — they streamed through the cursor) and terminal error. Call it
// after Next returns false or after Close; on a cursor still streaming it
// returns ErrCursorUnfinished.
func (c *Cursor) Summary() (*Result, error) {
	if c.release != nil {
		return nil, ErrCursorUnfinished
	}
	return c.res, c.Err()
}
