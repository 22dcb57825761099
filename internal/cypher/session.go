package cypher

// Session is the transport-agnostic query API: the Bolt server
// (internal/bolt), the cypher REPL and library callers all consume the
// engine through it. A Session owns at most one live Cursor (starting a
// new run closes the previous one, mirroring Bolt's one-stream-per-
// connection discipline) and optionally one explicit transaction.
//
// Streaming: Run executes the query on a dedicated goroutine and returns
// immediately with a Cursor. Every query runs on the execution pipeline
// (pipeline.go) with a channel sink (stream.go): the columns are published
// once the pipeline is compiled, and each result row reaches the cursor as
// the pipeline produces it, so a slow consumer backpressures the scan
// instead of the result being materialized. Closing the cursor cancels a
// read; a write runs to completion once started — Close discards its
// rows, not its effects.
//
// Admission: when the Executor carries an admission controller, Run
// admits synchronously — callers see AdmissionRejectedError before any
// goroutine is spawned — and the slot is released when the stream
// finishes (drained, failed, or closed), so governor counters track live
// streams, not just in-flight calls.
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

// Run parses src and starts executing it, returning a streaming Cursor.
// Parse errors, admission rejections and context errors surface here;
// execution errors (budget kills, evaluation failures) surface on the
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

	// An auto-commit mutating run holds the transaction lock shared for
	// its whole execution, so it never interleaves with an open explicit
	// transaction (which holds it exclusively). Inside a transaction the
	// session already holds the exclusive lock — RWMutex is not
	// reentrant, so it must not be re-acquired here. Reads are untouched.
	mutates := QueryMutates(q)
	var unlock func()
	if s.tx == nil && mutates {
		unlock, err = s.ex.lockTx(cctx, true)
		if err != nil {
			return nil, err
		}
	}

	var done func(error)
	if s.ex.admission != nil {
		done, err = s.ex.admission.Admit(cctx)
		if err != nil {
			if unlock != nil {
				unlock()
			}
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(cctx)
	c := &Cursor{
		sink:   newStreamSink(ctx),
		cancel: cancel,
		fin:    make(chan struct{}),
	}
	s.cur = c
	execCtx := ctx
	if mutates {
		execCtx = cctx // Close stops the write's rows, not the write
	}

	go func() {
		res, rerr := s.ex.executeProtected(execCtx, q, params, c.sink)
		if res != nil {
			res.Exec.PlanCacheHit = hit
		}
		c.res, c.err = res, rerr
		// Release the admission slot and lock hold before reporting the
		// run finished, so a returned Close means they are free.
		if done != nil {
			done(rerr)
		}
		if unlock != nil {
			unlock()
		}
		close(c.sink.rows)
		close(c.fin)
	}()
	return c, nil
}

// finishCursorLocked closes the session's live cursor, if any, waiting
// for its goroutine (and its admission slot and lock holds) to finish.
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
// idiom; Close cancels the run and releases its resources. A Cursor is
// not safe for concurrent use.
type Cursor struct {
	sink   *streamSink
	cancel context.CancelFunc
	fin    chan struct{} // closed after res/err are set and the run goroutine is done

	cols   []string
	colsOK bool
	cur    []Datum
	res    *Result
	err    error
	closed atomic.Bool
}

// Next advances to the next row, blocking until one is available or the
// stream ends. It returns false at end of stream — check Err then.
func (c *Cursor) Next() bool {
	row, ok := <-c.sink.rows
	if !ok {
		c.cur = nil
		return false
	}
	c.cur = row
	return true
}

// Record returns the current row. Valid after a true Next until the next
// Next call; the slice must not be retained across calls if mutated.
func (c *Cursor) Record() []Datum { return c.cur }

// Columns returns the result header, blocking until the run has compiled
// its pipeline (or failed before it could).
func (c *Cursor) Columns() []string {
	if c.colsOK {
		return c.cols
	}
	select {
	case cols := <-c.sink.cols:
		c.cols, c.colsOK = cols, true
	case <-c.fin:
		select {
		case cols := <-c.sink.cols:
			c.cols, c.colsOK = cols, true
		default:
			if c.res != nil {
				c.cols, c.colsOK = c.res.Columns, true
			}
		}
	}
	return c.cols
}

// Err returns the run's terminal error, or nil while streaming or after
// a clean finish. A cancellation caused by Close is not an error.
func (c *Cursor) Err() error {
	select {
	case <-c.fin:
	default:
		return nil
	}
	if c.err != nil && c.closed.Load() && errors.Is(c.err, context.Canceled) {
		return nil
	}
	return c.err
}

// Close cancels the run, drains the stream and waits for the run
// goroutine to finish (releasing its admission slot and lock holds).
// Closing a finished cursor is a no-op; Close returns Err.
func (c *Cursor) Close() error {
	c.closed.Store(true)
	c.cancel()
	for range c.sink.rows {
		// Drain so a producer blocked mid-emit always unblocks.
	}
	<-c.fin
	return c.Err()
}

// Summary returns the run's Result (stats, profile, columns; Rows are
// nil — they streamed through the cursor) and terminal error. It blocks
// until the stream completes, so call it after Next returns false or
// after Close.
func (c *Cursor) Summary() (*Result, error) {
	<-c.fin
	return c.res, c.Err()
}
