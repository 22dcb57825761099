package bolt

// Server: connection acceptance and the per-connection Bolt state
// machine.
//
//	connected --HELLO--> ready --RUN--> streaming --PULL*--> ready
//	   ready --BEGIN--> txReady --RUN--> txStreaming --PULL*--> txReady
//	   txReady --COMMIT|ROLLBACK--> ready
//	   any request error --> failed --(IGNORED...)--> RESET --> ready
//
// Every RUN flows through the engine Session API (internal/cypher), so
// admission control, per-query budgets and transaction locking behave
// identically over the wire and in-process. PULL streams records
// straight off the session Cursor, which runs the query on this
// connection's goroutine as rows are pulled — client flow control
// (PULL n) suspends the scan itself between batches.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/graphrules/graphrules/internal/cypher"
)

// Config configures a Server. Executor is required; it carries the
// graph, budgets and the admission controller shared by all connections.
type Config struct {
	Executor *cypher.Executor
	// Agent is the server identification string sent in the HELLO
	// response ("graphrules/graphd" when empty).
	Agent string
	// Logf receives connection-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// BaseContext, when non-nil, supplies the parent context for every
	// connection's queries (as in net/http.Server) — cancelling it kills
	// in-flight queries on server shutdown.
	BaseContext func() context.Context
}

// ServerStats is a snapshot of the server's monotonic counters plus the
// current number of live connections.
type ServerStats struct {
	ConnectionsTotal  int64 `json:"connections_total"`
	ConnectionsActive int64 `json:"connections_active"`
	MessagesIn        int64 `json:"messages_in"`
	QueriesRun        int64 `json:"queries_run"`
	RecordsOut        int64 `json:"records_out"`
	Failures          int64 `json:"failures"`
	TxBegun           int64 `json:"tx_begun"`
	TxCommitted       int64 `json:"tx_committed"`
	TxRolledBack      int64 `json:"tx_rolled_back"`
}

// Server serves the Bolt protocol over accepted connections.
type Server struct {
	ex      *cypher.Executor
	agent   string
	logf    func(string, ...any)
	baseCtx func() context.Context

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	nextConnID atomic.Int64

	connTotal    atomic.Int64
	connActive   atomic.Int64
	messagesIn   atomic.Int64
	queriesRun   atomic.Int64
	recordsOut   atomic.Int64
	failures     atomic.Int64
	txBegun      atomic.Int64
	txCommitted  atomic.Int64
	txRolledBack atomic.Int64
}

// NewServer builds a Server over the executor.
func NewServer(cfg Config) *Server {
	agent := cfg.Agent
	if agent == "" {
		agent = "graphrules/graphd"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background //graphrules:ctxshim server-root default, overridable via Config.BaseContext
	}
	return &Server{
		ex:        cfg.Executor,
		agent:     agent,
		logf:      logf,
		baseCtx:   base,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ConnectionsTotal:  s.connTotal.Load(),
		ConnectionsActive: s.connActive.Load(),
		MessagesIn:        s.messagesIn.Load(),
		QueriesRun:        s.queriesRun.Load(),
		RecordsOut:        s.recordsOut.Load(),
		Failures:          s.failures.Load(),
		TxBegun:           s.txBegun.Load(),
		TxCommitted:       s.txCommitted.Load(),
		TxRolledBack:      s.txRolledBack.Load(),
	}
}

// Serve accepts connections from l until the listener fails or the
// server is closed. It blocks; run it on its own goroutine to serve
// several listeners.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("bolt: server is closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(nc)
		}()
	}
}

// Close stops the server: listeners and live connections are closed and
// all connection handlers awaited (their sessions roll back open
// transactions on close).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers a live connection; it reports false when the server is
// already closed (the caller must drop the connection).
func (s *Server) track(nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// Connection states.
const (
	stateConnected = iota // handshake done, HELLO pending
	stateReady
	stateStreaming
	stateTxReady
	stateTxStreaming
	stateFailed
)

// handler is one connection's protocol state.
type handler struct {
	srv  *Server
	ctx  context.Context
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  Encoder
	sess *cypher.Session

	state   int
	cursor  *cypher.Cursor
	pending []cypher.Datum // one row peeked past a PULL batch (has_more)
	connID  string
}

// ServeConn runs the Bolt protocol on one already-accepted connection
// (exported so tests and in-process clients can drive a net.Pipe end).
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	if !s.track(nc) {
		return
	}
	defer s.untrack(nc)
	s.connTotal.Add(1)
	s.connActive.Add(1)
	defer s.connActive.Add(-1)

	major, minor, err := negotiate(nc)
	if err != nil {
		s.logf("bolt: %v", err)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx())
	defer cancel()
	h := &handler{
		srv:    s,
		ctx:    ctx,
		br:     bufio.NewReader(nc),
		bw:     bufio.NewWriter(nc),
		sess:   s.ex.OpenSession(),
		state:  stateConnected,
		connID: fmt.Sprintf("bolt-%d", s.nextConnID.Add(1)),
	}
	h.enc.V5 = major >= 5
	// Closing the session closes the live cursor and rolls back an open
	// transaction — a dropped connection never leaks a stream, a
	// governor slot or the transaction lock.
	defer h.sess.Close()
	_ = minor
	h.loop()
}

// loop reads and dispatches messages until the connection ends.
func (h *handler) loop() {
	buf := make([]byte, 0, 4096)
	for {
		payload, err := readMessage(h.br, buf)
		if err != nil {
			return // EOF or broken connection
		}
		buf = payload
		v, rest, err := Decode(payload)
		if err != nil {
			h.srv.logf("bolt: %s: undecodable message: %v", h.connID, err)
			return
		}
		st, ok := v.(Structure)
		if !ok || len(rest) != 0 {
			h.srv.logf("bolt: %s: message is not a single structure", h.connID)
			return
		}
		h.srv.messagesIn.Add(1)
		if !h.dispatch(st) {
			return
		}
		if err := h.bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch handles one request; false ends the connection.
func (h *handler) dispatch(st Structure) bool {
	switch st.Tag {
	case msgGoodbye:
		return false
	case msgReset:
		h.onReset()
		return true
	}

	if h.state == stateConnected {
		if st.Tag != msgHello {
			h.fail(fmt.Errorf("bolt: expected HELLO, got %s", tagName(st.Tag)))
			return true
		}
		h.onHello()
		return true
	}
	if h.state == stateFailed {
		h.send(msgIgnored, map[string]any{})
		return true
	}

	switch st.Tag {
	case msgHello:
		h.fail(fmt.Errorf("bolt: duplicate HELLO"))
	case msgRun:
		h.onRun(st)
	case msgPull:
		h.onPull(st)
	case msgDiscard:
		h.onDiscard()
	case msgBegin:
		h.onBegin()
	case msgCommit:
		h.onCommit()
	case msgRollback:
		h.onRollback()
	default:
		h.fail(fmt.Errorf("bolt: unexpected message %s", tagName(st.Tag)))
	}
	return true
}

// send writes one summary/record message.
func (h *handler) send(tag byte, fields ...any) {
	h.enc.Reset()
	if err := h.enc.AppendStructure(tag, fields...); err != nil {
		h.srv.logf("bolt: %s: encode: %v", h.connID, err)
		return
	}
	if err := writeMessage(h.bw, h.enc.Bytes()); err != nil {
		h.srv.logf("bolt: %s: write: %v", h.connID, err)
	}
}

// fail sends FAILURE and enters the failed state (requests are IGNORED
// until RESET).
func (h *handler) fail(err error) {
	h.srv.failures.Add(1)
	h.closeCursor()
	h.send(msgFailure, failureMeta(err))
	h.state = stateFailed
}

func (h *handler) closeCursor() {
	if h.cursor != nil {
		h.cursor.Close()
		h.cursor = nil
	}
	h.pending = nil
}

func (h *handler) onHello() {
	h.send(msgSuccess, map[string]any{
		"server":        h.srv.agent,
		"connection_id": h.connID,
	})
	h.state = stateReady
}

func (h *handler) onReset() {
	h.closeCursor()
	if h.sess.InTx() {
		if err := h.sess.Rollback(); err != nil {
			h.srv.logf("bolt: %s: reset rollback: %v", h.connID, err)
		}
		h.srv.txRolledBack.Add(1)
	}
	if h.state != stateConnected {
		h.state = stateReady
	}
	h.send(msgSuccess, map[string]any{})
}

func (h *handler) onRun(st Structure) {
	if h.state != stateReady && h.state != stateTxReady {
		h.fail(fmt.Errorf("bolt: RUN while %s", stateName(h.state)))
		return
	}
	if len(st.Fields) < 1 {
		h.fail(fmt.Errorf("bolt: RUN without a query"))
		return
	}
	query, ok := st.Fields[0].(string)
	if !ok {
		h.fail(fmt.Errorf("bolt: RUN query is %T, not string", st.Fields[0]))
		return
	}
	var params map[string]any
	if len(st.Fields) > 1 {
		params, _ = st.Fields[1].(map[string]any)
	}
	cur, err := h.sess.Run(h.ctx, query, engineParams(params))
	if err != nil {
		h.fail(err)
		return
	}
	h.srv.queriesRun.Add(1)
	h.cursor = cur
	h.pending = nil
	meta := map[string]any{"fields": cur.Columns(), "t_first": int64(0)}
	if h.state == stateTxReady {
		meta["qid"] = int64(0)
		h.state = stateTxStreaming
	} else {
		h.state = stateStreaming
	}
	h.send(msgSuccess, meta)
}

// nextRow yields the next record, consuming the peeked row first.
func (h *handler) nextRow() ([]cypher.Datum, bool) {
	if h.pending != nil {
		row := h.pending
		h.pending = nil
		return row, true
	}
	if h.cursor.Next() {
		return h.cursor.Record(), true
	}
	return nil, false
}

func (h *handler) onPull(st Structure) {
	if h.state != stateStreaming && h.state != stateTxStreaming {
		h.fail(fmt.Errorf("bolt: PULL while %s", stateName(h.state)))
		return
	}
	n := int64(-1)
	if len(st.Fields) > 0 {
		if extra, ok := st.Fields[0].(map[string]any); ok {
			if v, ok := extra["n"].(int64); ok {
				n = v
			}
		}
	}
	sent := int64(0)
	exhausted := false
	for n < 0 || sent < n {
		row, ok := h.nextRow()
		if !ok {
			exhausted = true
			break
		}
		h.send(msgRecord, wireRecord(row))
		h.srv.recordsOut.Add(1)
		sent++
	}
	if !exhausted {
		// Batch filled; peek one row to distinguish "more to come" from
		// "ended exactly at the batch boundary".
		if row, ok := h.nextRow(); ok {
			h.pending = row
			h.send(msgSuccess, map[string]any{"has_more": true})
			return
		}
		exhausted = true
	}
	_ = exhausted
	res, err := h.cursor.Summary()
	if err != nil {
		h.fail(err)
		return
	}
	h.closeCursor()
	meta := map[string]any{"t_last": int64(0), "type": "r"}
	if res != nil && res.Stats.NodesCreated+res.Stats.EdgesCreated+
		res.Stats.PropertiesSet+res.Stats.NodesDeleted+res.Stats.EdgesDeleted+
		res.Stats.LabelsAdded > 0 {
		meta["type"] = "w"
		meta["stats"] = map[string]any{
			"nodes-created":         int64(res.Stats.NodesCreated),
			"relationships-created": int64(res.Stats.EdgesCreated),
			"properties-set":        int64(res.Stats.PropertiesSet),
			"labels-added":          int64(res.Stats.LabelsAdded),
			"nodes-deleted":         int64(res.Stats.NodesDeleted),
			"relationships-deleted": int64(res.Stats.EdgesDeleted),
		}
	}
	if h.state == stateTxStreaming {
		h.state = stateTxReady
	} else {
		h.state = stateReady
	}
	h.send(msgSuccess, meta)
}

func (h *handler) onDiscard() {
	if h.state != stateStreaming && h.state != stateTxStreaming {
		h.fail(fmt.Errorf("bolt: DISCARD while %s", stateName(h.state)))
		return
	}
	h.closeCursor()
	if h.state == stateTxStreaming {
		h.state = stateTxReady
	} else {
		h.state = stateReady
	}
	h.send(msgSuccess, map[string]any{})
}

func (h *handler) onBegin() {
	if h.state != stateReady {
		h.fail(fmt.Errorf("bolt: BEGIN while %s", stateName(h.state)))
		return
	}
	if err := h.sess.Begin(h.ctx); err != nil {
		h.fail(err)
		return
	}
	h.srv.txBegun.Add(1)
	h.state = stateTxReady
	h.send(msgSuccess, map[string]any{})
}

func (h *handler) onCommit() {
	if h.state != stateTxReady {
		h.fail(fmt.Errorf("bolt: COMMIT while %s", stateName(h.state)))
		return
	}
	if err := h.sess.Commit(); err != nil {
		h.fail(err)
		return
	}
	h.srv.txCommitted.Add(1)
	h.state = stateReady
	h.send(msgSuccess, map[string]any{})
}

func (h *handler) onRollback() {
	if h.state != stateTxReady {
		h.fail(fmt.Errorf("bolt: ROLLBACK while %s", stateName(h.state)))
		return
	}
	if err := h.sess.Rollback(); err != nil {
		h.fail(err)
		return
	}
	h.srv.txRolledBack.Add(1)
	h.state = stateReady
	h.send(msgSuccess, map[string]any{})
}

func stateName(st int) string {
	switch st {
	case stateConnected:
		return "connected"
	case stateReady:
		return "ready"
	case stateStreaming:
		return "streaming"
	case stateTxReady:
		return "tx-ready"
	case stateTxStreaming:
		return "tx-streaming"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", st)
	}
}
