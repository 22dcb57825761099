package bolt

import (
	"errors"
	"net"
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
)

// startServer brings up a Bolt server on a loopback listener and returns
// a connected, HELLO-completed client.
func startServer(t *testing.T, ex *cypher.Executor) (*Client, *Server) {
	t.Helper()
	srv := NewServer(Config{Executor: ex, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	meta, err := c.Hello("graphrules-test/1")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := meta["server"].(string); !strings.HasPrefix(s, "graphrules/") {
		t.Fatalf("server agent = %v", meta["server"])
	}
	return c, srv
}

func boltGraph(n int) *graph.Graph {
	g := graph.New("bolt")
	var prev *graph.Node
	for i := 0; i < n; i++ {
		node := g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
		if prev != nil {
			g.MustAddEdge(prev.ID, node.ID, []string{"NEXT"}, nil)
		}
		prev = node
	}
	return g
}

func TestServerVersionNegotiation(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(1)))
	if c.Major != 5 || c.Minor != 0 {
		t.Fatalf("negotiated %d.%d, want 5.0", c.Major, c.Minor)
	}
}

func TestServerRunPullStreaming(t *testing.T) {
	c, srv := startServer(t, cypher.NewExecutor(boltGraph(25)))

	cols, err := c.Run(`MATCH (n:N) RETURN n.i AS i`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "i" {
		t.Fatalf("columns = %v", cols)
	}
	// Paged PULL: two batches of 10 then the tail of 5.
	var total int
	for _, want := range []struct {
		n    int
		more bool
	}{{10, true}, {10, true}, {10, false}} {
		recs, more, _, err := c.Pull(10)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
		if more != want.more {
			t.Fatalf("after %d records: has_more = %v, want %v", total, more, want.more)
		}
	}
	if total != 25 {
		t.Fatalf("streamed %d records, want 25", total)
	}
	if st := srv.Stats(); st.RecordsOut != 25 || st.QueriesRun != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestServerEntityRecords(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(3)))

	_, recs, err := c.RunAll(`MATCH (a:N)-[r:NEXT]->(b:N) RETURN a, r, b LIMIT 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0]) != 3 {
		t.Fatalf("records = %v", recs)
	}
	n, ok := recs[0][0].(Structure)
	if !ok || n.Tag != tagNode || len(n.Fields) != 4 {
		t.Fatalf("node value = %#v (want v5 node structure)", recs[0][0])
	}
	labels, _ := n.Fields[1].([]any)
	if len(labels) != 1 || labels[0] != "N" {
		t.Fatalf("node labels = %v", labels)
	}
	r, ok := recs[0][1].(Structure)
	if !ok || r.Tag != tagRelationship || len(r.Fields) != 8 {
		t.Fatalf("relationship value = %#v", recs[0][1])
	}
	if r.Fields[3] != "NEXT" {
		t.Fatalf("relationship type = %v", r.Fields[3])
	}
}

func TestServerParams(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(10)))
	_, recs, err := c.RunAll(`MATCH (n:N) WHERE n.i = $want RETURN n.i AS i`,
		map[string]any{"want": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0][0] != int64(4) {
		t.Fatalf("records = %v", recs)
	}
}

func TestServerSyntaxFailureAndReset(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(1)))

	_, err := c.Run(`MATCH (n RETURN n`, nil)
	var sf *ServerFailure
	if !errors.As(err, &sf) || sf.Code != codeSyntaxError {
		t.Fatalf("err = %v, want %s", err, codeSyntaxError)
	}
	// The connection is now failed: further requests are IGNORED.
	if _, err := c.Run(`MATCH (n:N) RETURN n`, nil); err == nil ||
		!strings.Contains(err.Error(), "ignored") {
		t.Fatalf("post-failure run err = %v, want ignored", err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := c.RunAll(`MATCH (n:N) RETURN n.i AS i`, nil); err != nil || len(recs) != 1 {
		t.Fatalf("post-reset run: recs=%d err=%v", len(recs), err)
	}
}

// TestServerSurvivesHugeNesting sends the two query texts that used to take
// the whole process down — both under the 16 MiB message cap — and expects
// an ordinary syntax FAILURE each time, with the same connection serving a
// normal query after RESET.
func TestServerSurvivesHugeNesting(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(1)))

	hostile := map[string]string{
		"1M-term sum": "RETURN 1" + strings.Repeat("+1", 1_000_000),
	}
	if !testing.Short() { // 10M tokens: ~1 GiB while lexing
		hostile["5M parentheses"] = "RETURN " + strings.Repeat("(", 5_000_000) + "1" + strings.Repeat(")", 5_000_000)
	}
	for name, q := range hostile {
		_, err := c.Run(q, nil)
		var sf *ServerFailure
		if !errors.As(err, &sf) || sf.Code != codeSyntaxError {
			t.Fatalf("%s: err = %v, want %s", name, err, codeSyntaxError)
		}
		if err := c.Reset(); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		if _, recs, err := c.RunAll(`MATCH (n:N) RETURN n.i AS i`, nil); err != nil || len(recs) != 1 {
			t.Fatalf("%s: run after failure: recs=%d err=%v", name, len(recs), err)
		}
	}
}

func TestServerBudgetKillFailure(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(100), cypher.WithMaxRows(10)))

	if _, err := c.Run(`MATCH (n:N) RETURN n.i AS i`, nil); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := c.Pull(-1)
	var sf *ServerFailure
	if !errors.As(err, &sf) || sf.Code != codeResourceExceeded {
		t.Fatalf("err = %v, want %s", err, codeResourceExceeded)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestServerAdmissionRejectFailure(t *testing.T) {
	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 0})
	// The result must overflow the cursor's channel buffer so the scan —
	// and with it the admission slot — stays live until the client pulls.
	ex := cypher.NewExecutor(boltGraph(500), cypher.WithAdmission(gov))
	c1, _ := startServer(t, ex)
	// Hold the only slot by leaving a stream open on a second connection.
	if _, err := c1.Run(`MATCH (n:N) RETURN n.i AS i`, nil); err != nil {
		t.Fatal(err)
	}

	srv2 := NewServer(Config{Executor: ex})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l)
	defer srv2.Close()
	c2, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Hello("t"); err != nil {
		t.Fatal(err)
	}
	_, err = c2.Run(`MATCH (n:N) RETURN n.i AS i`, nil)
	var sf *ServerFailure
	if !errors.As(err, &sf) || sf.Code != codeNoThreads {
		t.Fatalf("err = %v, want %s", err, codeNoThreads)
	}

	// Drain the first stream; the slot frees and the governor reconciles.
	if _, _, _, err := c1.Pull(-1); err != nil {
		t.Fatal(err)
	}
	st := gov.Stats()
	if st.Active != 0 || st.Admitted != st.Completed+st.Killed {
		t.Fatalf("governor counters: %+v", st)
	}
}

func TestServerExplicitTx(t *testing.T) {
	g := boltGraph(0)
	c, srv := startServer(t, cypher.NewExecutor(g))

	// BEGIN … COMMIT persists.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunAll(`CREATE (p:P {k: 1})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.NodesWithLabel("P")); n != 1 {
		t.Fatalf("committed P nodes = %d, want 1", n)
	}

	// BEGIN … ROLLBACK undoes.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunAll(`CREATE (q:Q {k: 2})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.NodesWithLabel("Q")); n != 0 {
		t.Fatalf("rolled-back Q nodes = %d, want 0", n)
	}

	st := srv.Stats()
	if st.TxBegun != 2 || st.TxCommitted != 1 || st.TxRolledBack != 1 {
		t.Fatalf("tx counters: %+v", st)
	}
}

// TestServerDisconnectRollsBack drops a connection mid-transaction and
// expects the server to roll it back.
func TestServerDisconnectRollsBack(t *testing.T) {
	g := boltGraph(0)
	ex := cypher.NewExecutor(g)
	c, srv := startServer(t, ex)

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunAll(`CREATE (p:P)`, nil); err != nil {
		t.Fatal(err)
	}
	c.nc.Close() // abrupt disconnect, no GOODBYE
	srv.Close()  // waits for the handler to unwind

	if n := len(g.NodesWithLabel("P")); n != 0 {
		t.Fatalf("post-disconnect P nodes = %d, want 0 (tx must roll back)", n)
	}
	// A fresh session can take the tx lock: the dropped one released it.
	s := ex.OpenSession()
	defer s.Close()
	if err := s.Begin(nil); err != nil {
		t.Fatalf("tx lock still held after disconnect: %v", err)
	}
}

func TestServerWriteSummaryStats(t *testing.T) {
	c, _ := startServer(t, cypher.NewExecutor(boltGraph(0)))
	if _, err := c.Run(`CREATE (p:P {k: 1})`, nil); err != nil {
		t.Fatal(err)
	}
	_, _, meta, err := c.Pull(-1)
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := meta["type"].(string); typ != "w" {
		t.Fatalf("summary type = %v, want w", meta["type"])
	}
	stats, _ := meta["stats"].(map[string]any)
	if stats["nodes-created"] != int64(1) {
		t.Fatalf("summary stats = %v", stats)
	}
}

func TestServerRejectsBadHandshake(t *testing.T) {
	srv := NewServer(Config{Executor: cypher.NewExecutor(boltGraph(1))})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Wrong magic: the server must drop the connection without a reply.
	if _, err := nc.Write(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := nc.Read(buf); err == nil && n == 4 && buf[3] != 0 {
		t.Fatalf("server negotiated %v after bad magic", buf)
	}
}
