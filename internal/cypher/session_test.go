package cypher

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
)

func sessionGraph(n int) *graph.Graph {
	g := graph.New("session")
	for i := 0; i < n; i++ {
		g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
	}
	return g
}

// drain collects all rows from a cursor and returns them with the
// terminal error.
func drain(c *Cursor) ([][]Datum, error) {
	var rows [][]Datum
	for c.Next() {
		rows = append(rows, c.Record())
	}
	return rows, c.Err()
}

func TestSessionStreamedRun(t *testing.T) {
	ex := NewExecutor(sessionGraph(10))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cols := c.Columns(); len(cols) != 1 || cols[0] != "i" {
		t.Fatalf("columns = %v", cols)
	}
	if _, err := c.Summary(); !errors.Is(err, ErrCursorUnfinished) {
		t.Fatalf("Summary while streaming = %v, want ErrCursorUnfinished", err)
	}
	rows, err := drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	res, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatalf("streamed summary should not retain rows")
	}
}

func TestSessionStreamSkipLimit(t *testing.T) {
	ex := NewExecutor(sessionGraph(100))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i SKIP 5 LIMIT 7`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
}

// TestSessionAggregateRun runs an aggregate through a cursor: the
// Aggregate operator's one row reaches the cursor like any other.
func TestSessionAggregateRun(t *testing.T) {
	ex := NewExecutor(sessionGraph(10))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `MATCH (n:N) RETURN count(*) AS n`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Val.Int() != 10 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestSessionMultiClauseStreams: a MATCH … WITH … MATCH query streams — its
// first record arrives while the scan is still running, and closing the
// cursor then leaves the scan partial.
func TestSessionMultiClauseStreams(t *testing.T) {
	const n = 20000
	ex := NewExecutor(chainGraph(n))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `MATCH (p:Person) WITH p MATCH (p)-[:NEXT]->(q) RETURN q.idx AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Next() {
		t.Fatalf("no first record: %v", c.Err())
	}
	if got := c.Record()[0].Val.Int(); got != 1 {
		t.Fatalf("first record = %d, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.RowsScanned == 0 || res.Exec.RowsScanned >= n {
		t.Fatalf("RowsScanned = %d after Close, want a partial scan of the %d Persons", res.Exec.RowsScanned, n)
	}
}

// TestSessionCloseKeepsWrites: closing a write's cursor before reading it
// discards the rows, not the write.
func TestSessionCloseKeepsWrites(t *testing.T) {
	ex := NewExecutor(sessionGraph(0))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `UNWIND range(1, 500) AS i CREATE (:W {i: i}) RETURN i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("W")); n != 500 {
		t.Fatalf("W nodes after Close = %d, want 500", n)
	}
}

// TestSessionStreamBudgetKill verifies a row-budget kill surfaces as a
// typed error on the cursor after the rows that preceded it.
func TestSessionStreamBudgetKill(t *testing.T) {
	ex := NewExecutor(sessionGraph(100), WithMaxRows(10))
	s := ex.OpenSession()
	defer s.Close()

	c, err := s.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(c)
	var re *ResourceExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ResourceExhaustedError", err)
	}
	if re.Resource != "rows" {
		t.Fatalf("resource = %q, want rows", re.Resource)
	}
	if len(rows) > 10 {
		t.Fatalf("got %d rows past a 10-row budget", len(rows))
	}
}

// TestSessionEarlyClose closes a cursor mid-stream: the run goroutine
// must exit (no leak), Err must stay nil (deliberate close), and the
// next Run on the session must work.
func TestSessionEarlyClose(t *testing.T) {
	ex := NewExecutor(sessionGraph(2000))
	s := ex.OpenSession()
	defer s.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c, err := s.Run(context.Background(), `MATCH (a:N), (b:N) RETURN a.i AS x`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Next() {
			t.Fatalf("iter %d: no first row", i)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestSessionCloseStopsUnwind: closing the cursor of a counting product
// built by UNWIND alone cancels it promptly and frees its admission slot —
// it emits nothing, so only UNWIND's own cancellation poll can stop it.
func TestSessionCloseStopsUnwind(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 0})
	ex := NewExecutor(graph.New("empty"), WithAdmission(gov))
	s := ex.OpenSession() // not closed on failure: that would block as Close does

	c, err := s.Run(context.Background(), nestedUnwindCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked 10s after cancelling a nested UNWIND count(*)")
	}
	if st := gov.Stats(); st.Active != 0 {
		t.Fatalf("admission slot still held after Close: %+v", st)
	}
	s.Close()
}

// TestSessionAdmission wires a governor and checks Run admits
// synchronously, rejections surface at Run, and counters reconcile once
// streams finish.
func TestSessionAdmission(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 0})
	ex := NewExecutor(sessionGraph(50), WithAdmission(gov))

	s1 := ex.OpenSession()
	defer s1.Close()
	c1, err := s1.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The slot is held while c1 streams: a second run must be rejected.
	s2 := ex.OpenSession()
	defer s2.Close()
	_, err = s2.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i`, nil)
	var rej *governor.AdmissionRejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want *AdmissionRejectedError", err)
	}
	if _, err := drain(c1); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	st := gov.Stats()
	if st.Active != 0 || st.Admitted != st.Completed+st.Killed {
		t.Fatalf("governor counters do not reconcile: %+v", st)
	}
}

func TestSessionTxCommit(t *testing.T) {
	ex := NewExecutor(sessionGraph(0))
	s := ex.OpenSession()
	defer s.Close()

	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := s.Run(context.Background(), `CREATE (p:P {k: 1})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("P")); n != 1 {
		t.Fatalf("committed nodes = %d, want 1", n)
	}
	if err := s.Commit(); !errors.Is(err, ErrNoTx) {
		t.Fatalf("double commit err = %v, want ErrNoTx", err)
	}
}

func TestSessionTxRollbackCreate(t *testing.T) {
	ex := NewExecutor(sessionGraph(3))
	s := ex.OpenSession()
	defer s.Close()

	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE (p:P {k: 1})`,
		`CREATE (q:P {k: 2})`,
	} {
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ex.g.NodesWithLabel("P")); n != 2 {
		t.Fatalf("pre-rollback: %d P nodes (read-uncommitted writes should be live)", n)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("P")); n != 0 {
		t.Fatalf("post-rollback: %d P nodes, want 0", n)
	}
	if n := len(ex.g.NodesWithLabel("N")); n != 3 {
		t.Fatalf("post-rollback: %d N nodes, want 3", n)
	}
}

func TestSessionTxRollbackSetAndDelete(t *testing.T) {
	g := graph.New("tx")
	a := g.AddNode([]string{"A"}, graph.Props{"v": graph.NewInt(1)})
	b := g.AddNode([]string{"A"}, graph.Props{"v": graph.NewInt(2)})
	e := g.MustAddEdge(a.ID, b.ID, []string{"R"}, graph.Props{"w": graph.NewInt(9)})
	ex := NewExecutor(g)
	s := ex.OpenSession()
	defer s.Close()

	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`MATCH (x:A) WHERE x.v = 1 SET x.v = 100`,
		`MATCH (x:A) WHERE x.v = 2 DETACH DELETE x`, // cascades the edge
	} {
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(c); err != nil {
			t.Fatal(err)
		}
	}
	if g.Node(b.ID) != nil {
		t.Fatalf("delete did not apply in-tx")
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := g.Node(a.ID); n == nil || n.Prop("v").Int() != 1 {
		t.Fatalf("SET not rolled back: %+v", n)
	}
	if n := g.Node(b.ID); n == nil || n.Prop("v").Int() != 2 {
		t.Fatalf("DELETE not rolled back: %+v", n)
	}
	if ge := g.Edge(e.ID); ge == nil || ge.Prop("w").Int() != 9 {
		t.Fatalf("cascaded edge not restored: %+v", ge)
	}
}

// TestSessionTxExcludesAutoCommitWrites: while a transaction is open,
// another session's auto-commit write must block until commit; reads
// proceed.
func TestSessionTxExcludesAutoCommitWrites(t *testing.T) {
	ex := NewExecutor(sessionGraph(3))
	s1 := ex.OpenSession()
	defer s1.Close()
	if err := s1.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := ex.OpenSession()
	defer s2.Close()
	// A read on another session is not blocked by the open tx.
	c, err := s2.Run(context.Background(), `MATCH (n:N) RETURN n.i AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := drain(c); err != nil || len(rows) != 3 {
		t.Fatalf("read under open tx: rows=%d err=%v", len(rows), err)
	}
	// An auto-commit write on another session queues behind the tx; with
	// a short ctx it must time out in lock acquisition, not deadlock.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = s2.Run(ctx, `CREATE (p:P)`, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write under open tx: err = %v, want deadline exceeded", err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the write goes through.
	c, err = s2.Run(context.Background(), `CREATE (p:P)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(c); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("P")); n != 1 {
		t.Fatalf("post-commit write: %d P nodes, want 1", n)
	}
}

// TestSessionCloseRollsBack: closing a session with an open transaction
// rolls it back.
func TestSessionCloseRollsBack(t *testing.T) {
	ex := NewExecutor(sessionGraph(0))
	s := ex.OpenSession()
	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := s.Run(context.Background(), `CREATE (p:P)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("P")); n != 0 {
		t.Fatalf("close did not roll back: %d P nodes", n)
	}
	if _, err := s.Run(context.Background(), `MATCH (n) RETURN n`, nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("run after close: %v, want ErrSessionClosed", err)
	}
}

// TestStreamMatchesMaterialized cross-checks the streaming plan against
// the classic executor on the same query.
func TestStreamMatchesMaterialized(t *testing.T) {
	g := sessionGraph(50)
	queries := []string{
		`MATCH (n:N) RETURN n.i AS i`,
		`MATCH (n:N) WHERE n.i > 25 RETURN n.i AS i`,
		`MATCH (n:N) RETURN n.i AS a, n.i AS a`, // column dedup
	}
	for _, q := range queries {
		ref, err := NewExecutor(g).Run(q, nil)
		if err != nil {
			t.Fatalf("%s: ref: %v", q, err)
		}
		s := NewExecutor(g).OpenSession()
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: stream: %v", q, err)
		}
		cols := c.Columns()
		rows, err := drain(c)
		if err != nil {
			t.Fatalf("%s: drain: %v", q, err)
		}
		if len(cols) != len(ref.Columns) {
			t.Fatalf("%s: cols %v vs %v", q, cols, ref.Columns)
		}
		for i := range cols {
			if cols[i] != ref.Columns[i] {
				t.Fatalf("%s: cols %v vs %v", q, cols, ref.Columns)
			}
		}
		if len(rows) != len(ref.Rows) {
			t.Fatalf("%s: %d rows vs %d", q, len(rows), len(ref.Rows))
		}
		s.Close()
	}
}

// TestSessionTxExcludesExecutorRun: Executor.Run admits through the same
// gate as a Session, so an auto-commit write waits for another session's
// open transaction instead of joining its write set — where the
// transaction's ROLLBACK would delete it.
func TestSessionTxExcludesExecutorRun(t *testing.T) {
	ex := NewExecutor(sessionGraph(0))
	s := ex.OpenSession()
	defer s.Close()
	if err := s.Begin(context.Background()); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := ex.Run(`CREATE (:Auto)`, nil)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("Executor.Run wrote inside another session's transaction (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if n := len(ex.g.NodesWithLabel("Auto")); n != 1 {
		t.Fatalf("Auto nodes after the rollback = %d, want 1", n)
	}
}

// TestSessionCancelDuringNext: cancelling the Run context from another
// goroutine while Next is executing a counting product — which emits
// nothing until its end — stops it promptly with context.Canceled and
// frees its admission slot.
func TestSessionCancelDuringNext(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 0})
	ex := NewExecutor(graph.New("empty"), WithAdmission(gov))
	s := ex.OpenSession()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := s.Run(ctx, nestedUnwindCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := make(chan bool, 1)
	go func() { next <- c.Next() }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case ok := <-next:
		if ok {
			t.Fatalf("Next returned a row: %v", c.Record())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next still running 10s after its context was cancelled")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if st := gov.Stats(); st.Active != 0 {
		t.Fatalf("admission slot still held after the cancelled run: %+v", st)
	}
}

// TestSessionCloseUnpulled: closing a cursor that was never pulled runs a
// write to completion, skips a read, and frees the admission slot and the
// transaction lock either way.
func TestSessionCloseUnpulled(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 0})
	ex := NewExecutor(sessionGraph(3), WithAdmission(gov))
	s := ex.OpenSession()
	defer s.Close()

	for _, q := range []string{`CREATE (:U) RETURN 1 AS one`, `CREATE (:U)`, `MATCH (n:N) RETURN n.i AS i`} {
		c, err := s.Run(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: Close = %v", q, err)
		}
		if st := gov.Stats(); st.Active != 0 || st.Admitted != st.Completed+st.Killed {
			t.Fatalf("%s: admission slot not freed by Close: %+v", q, st)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		tx := ex.OpenSession()
		err = tx.Begin(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: transaction lock still held after Close: %v", q, err)
		}
		tx.Close()
	}
	if n := len(ex.g.NodesWithLabel("U")); n != 2 {
		t.Fatalf("U nodes = %d, want the 2 unpulled writes", n)
	}
}
