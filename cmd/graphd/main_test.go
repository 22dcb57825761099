package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/bolt"
	"github.com/graphrules/graphrules/internal/storage"
)

// syncWriter lets the test read run()'s output while it is still being
// written from the server goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// listenAddr scans run()'s output for the "<what> listening on" line and
// returns the bound address.
func listenAddr(t *testing.T, out *syncWriter, what string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			line := sc.Text()
			if !strings.Contains(line, what+" listening on ") {
				continue
			}
			addr := line[strings.LastIndex(line, " ")+1:]
			addr = strings.TrimPrefix(addr, "http://")
			return strings.TrimSuffix(addr, "/metrics")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %q listen line in output:\n%s", what, out.String())
	return ""
}

// TestGraphdLifecycle boots the full binary entry point on ephemeral
// ports, connects a Bolt client, scrapes the metrics endpoint, and shuts
// down via context cancellation.
func TestGraphdLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-metrics-addr", "127.0.0.1:0",
			"-dataset", "WWC2019",
			"-max-rows", "100000",
		}, out)
	}()

	boltAddr := listenAddr(t, out, "bolt")
	metricsAddr := listenAddr(t, out, "metrics")

	c, err := bolt.Dial(boltAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello("graphd-test"); err != nil {
		t.Fatal(err)
	}
	_, recs, err := c.RunAll(`MATCH (n) RETURN n LIMIT 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	c.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Governor.Admitted < 1 {
		t.Fatalf("metrics governor.admitted = %d, want >= 1", snap.Governor.Admitted)
	}
	if snap.Server.QueriesRun < 1 || snap.Server.RecordsOut < 5 {
		t.Fatalf("metrics server counters: %+v", snap.Server)
	}
	if snap.Graph.Nodes == 0 {
		t.Fatalf("metrics graph info empty: %+v", snap.Graph)
	}

	hz, err := http.Get(fmt.Sprintf("http://%s/healthz", metricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hz.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not shut down on context cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("no shutdown line in output:\n%s", out.String())
	}
}

func TestGraphdBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-dataset", "NoSuchDataset"}, &syncWriter{}); err == nil {
		t.Fatal("run accepted an unknown dataset")
	}
	if err := run(context.Background(), []string{"-snapshot", "/nonexistent/graph.snap"}, &syncWriter{}); err == nil {
		t.Fatal("run accepted a missing snapshot file")
	}
}

// TestGraphdCommitIsDurable: with -wal and the default commit window, a
// Bolt COMMIT that succeeded is already in the log file while the server
// is still up — no Close, flush or shutdown needed to recover it.
func TestGraphdCommitIsDurable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	walFile := filepath.Join(t.TempDir(), "graphd.wal")
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-wal", walFile}, out)
	}()

	c, err := bolt.Dial(listenAddr(t, out, "bolt"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello("graphd-test"); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunAll(`CREATE (n:Durable {id: 7}) RETURN n.id AS id`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(walFile)
	if err != nil {
		t.Fatal(err)
	}
	g, info, err := storage.RecoverReplay("durable", f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ids := g.NodesWithLabel("Durable")
	if info.Torn || len(ids) != 1 || g.Node(ids[0]).Prop("id").Int() != 7 {
		t.Fatalf("log of a running server recovers %d Durable node(s) (info %+v)", len(ids), info)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v", err)
	}
}
