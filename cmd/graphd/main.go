// Command graphd serves a property graph over the Bolt wire protocol,
// so stock Neo4j drivers and tools can run Cypher against the
// graphrules engine. Every connection gets an engine session: queries
// stream record-by-record under client flow control, pass governor
// admission, and run under the configured row/memory/deadline budgets;
// explicit transactions (BEGIN/COMMIT/ROLLBACK) are single-writer with
// snapshot rollback.
//
// Usage:
//
//	graphd -dataset Twitter                          # Bolt on :7687
//	graphd -snapshot graph.snap -addr :7687 -metrics-addr :7688
//	graphd -dataset WWC2019 -max-rows 100000 -query-timeout 5s
//
// The -metrics-addr endpoint serves GET /metrics: a JSON document with
// the governor counters (admitted/queued/rejected/killed/active), the
// Bolt server counters (connections, queries, records, failures,
// transactions) and graph size, plus GET /healthz for liveness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/graphrules/graphrules/internal/bolt"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphd", flag.ContinueOnError)
	addr := fs.String("addr", ":7687", "Bolt listen address")
	metricsAddr := fs.String("metrics-addr", "", "HTTP metrics listen address (empty = disabled)")
	datasetName := fs.String("dataset", "", "dataset to load (WWC2019, Cybersecurity, Twitter)")
	snapshot := fs.String("snapshot", "", "binary snapshot file to load")
	seed := fs.Int64("graph-seed", 42, "dataset generator seed")
	violations := fs.Float64("violations", 0.03, "dataset violation injection rate")
	queryTimeout := fs.Duration("query-timeout", 0, "kill any query running longer than this (0 = no limit)")
	maxRows := fs.Int("max-rows", 0, "kill any query emitting more than N rows with a typed budget error (0 = unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "kill any query retaining more than ~N bytes (0 = unlimited)")
	maxConcurrent := fs.Int("max-concurrent", 64, "admit at most N concurrently executing queries")
	maxQueue := fs.Int("max-queue", 64, "queue at most N queries waiting for an execution slot")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "reject queries queued longer than this")
	walPath := fs.String("wal", "", "append every committed mutation epoch to this write-ahead log file")
	commitWindow := fs.Duration("commit-window", 0, "group-commit fsync window for -wal (0 = flush and sync each epoch before its commit returns)")
	pinSnapshot := fs.Bool("pin-snapshot", false, "pin each read-only query to the graph epoch current at its start")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	switch {
	case *snapshot != "":
		var err error
		if g, err = storage.LoadFile(*snapshot); err != nil {
			return err
		}
	case *datasetName != "":
		gen, err := datasets.ByName(*datasetName)
		if err != nil {
			return err
		}
		g = gen(datasets.Options{Seed: *seed, ViolationRate: *violations})
	default:
		g = graph.New("empty")
	}
	fmt.Fprintf(out, "graphd: loaded %s: %d nodes, %d edges\n", g.Name(), g.NodeCount(), g.EdgeCount())

	if *walPath != "" {
		f, err := os.OpenFile(*walPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		wal := storage.NewGroupWAL(f, *commitWindow)
		detach := storage.AttachWAL(g, wal)
		defer func() {
			detach()
			if err := wal.Close(); err != nil {
				fmt.Fprintln(out, "graphd: wal close:", err)
			}
			f.Close()
		}()
		fmt.Fprintf(out, "graphd: WAL %s (commit window %s)\n", *walPath, *commitWindow)
	}

	gov := governor.New(governor.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
	})
	ex := cypher.NewExecutor(g,
		cypher.WithSnapshotPin(*pinSnapshot),
		cypher.WithMaxRows(*maxRows),
		cypher.WithMemoryBudget(*memBudget),
		cypher.WithQueryDeadline(*queryTimeout),
		cypher.WithAdmission(gov),
	)
	srv := bolt.NewServer(bolt.Config{
		Executor: ex,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, "graphd: "+format+"\n", a...)
		},
		// Signal-driven shutdown cancels in-flight queries, not just the
		// accept loop.
		BaseContext: func() context.Context { return ctx },
	})

	boltLn, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graphd: bolt listening on %s\n", boltLn.Addr())

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsLn, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			boltLn.Close()
			return err
		}
		metricsSrv = &http.Server{Handler: metricsMux(srv, gov, g)}
		go metricsSrv.Serve(metricsLn)
		fmt.Fprintf(out, "graphd: metrics listening on http://%s/metrics\n", metricsLn.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(boltLn) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "graphd: shutting down")
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	if metricsSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		metricsSrv.Shutdown(sctx)
		cancel()
	}
	return srv.Close()
}

// metricsSnapshot is the /metrics response document.
type metricsSnapshot struct {
	Governor governor.Stats   `json:"governor"`
	Server   bolt.ServerStats `json:"server"`
	Graph    graphInfo        `json:"graph"`
}

type graphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Epoch uint64 `json:"epoch"`
}

func metricsMux(srv *bolt.Server, gov *governor.Governor, g *graph.Graph) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := metricsSnapshot{
			Governor: gov.Stats(),
			Server:   srv.Stats(),
			Graph: graphInfo{
				Name:  g.Name(),
				Nodes: g.NodeCount(),
				Edges: g.EdgeCount(),
				Epoch: g.Epoch(),
			},
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
