// Command cypher loads a property graph (a generated dataset or a
// snapshot) and executes Cypher queries against it: a single -q query or an
// interactive REPL on stdin.
//
// Usage:
//
//	cypher -dataset Twitter -q 'MATCH (u:User)-[:FOLLOWS]->(u) RETURN count(*) AS selfFollows'
//	cypher -snapshot graph.snap          # REPL
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
	"github.com/graphrules/graphrules/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cypher:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("cypher", flag.ContinueOnError)
	datasetName := fs.String("dataset", "", "dataset to load (WWC2019, Cybersecurity, Twitter)")
	snapshot := fs.String("snapshot", "", "binary snapshot file to load")
	query := fs.String("q", "", "single query to run (omit for a REPL)")
	seed := fs.Int64("graph-seed", 42, "dataset generator seed")
	violations := fs.Float64("violations", 0.03, "dataset violation injection rate")
	queryTimeout := fs.Duration("query-timeout", 0, "abort any query running longer than this (0 = no limit)")
	maxRows := fs.Int("max-rows", 0, "kill any query materializing more than N rows with a typed budget error (0 = unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "kill any query retaining more than ~N bytes (rows + aggregate state; 0 = unlimited)")
	queryQueue := fs.Int("query-queue", 0, "admit at most N concurrent queries, with an N-deep FIFO wait queue and 2s queue timeout (0 = ungated)")
	lintOnly := fs.Bool("lint", false, "lint the -q query against the graph's schema instead of executing it (exit 1 on error-severity findings)")
	walPath := fs.String("wal", "", "append every committed mutation epoch to this write-ahead log file")
	commitWindow := fs.Duration("commit-window", 0, "group-commit fsync window for -wal (0 = flush and sync each epoch before its commit returns)")
	replay := fs.String("replay", "", "recover the graph from this WAL file (every complete epoch frame before a torn tail)")
	pinSnapshot := fs.Bool("pin-snapshot", false, "pin each read-only query to the graph epoch current at its start (stable scans under concurrent writers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	switch {
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		var info storage.RecoveryInfo
		g, info, err = storage.RecoverReplay("recovered", f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Recovered %d op(s) through epoch %d", info.Applied, info.Epoch)
		if info.Torn {
			fmt.Fprint(out, " (dropped a torn tail)")
		}
		fmt.Fprintln(out)
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
	fmt.Fprintf(out, "Loaded %s: %d nodes, %d edges\n", g.Name(), g.NodeCount(), g.EdgeCount())

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
				fmt.Fprintln(out, "wal close:", err)
			}
			f.Close()
		}()
		if *commitWindow > 0 {
			fmt.Fprintf(out, "WAL %s (group commit, %s window)\n", *walPath, *commitWindow)
		} else {
			fmt.Fprintf(out, "WAL %s (each epoch synced before its commit returns)\n", *walPath)
		}
	}

	opts := []cypher.Option{
		cypher.WithSnapshotPin(*pinSnapshot),
		cypher.WithMaxRows(*maxRows),
		cypher.WithMemoryBudget(*memBudget),
	}
	var gov *governor.Governor
	if *queryQueue > 0 {
		gov = governor.New(governor.Config{
			MaxConcurrent: *queryQueue,
			MaxQueue:      *queryQueue,
			QueueTimeout:  2 * time.Second,
		})
		opts = append(opts, cypher.WithAdmission(gov))
	}
	ex := cypher.NewExecutor(g, opts...)
	sess := ex.OpenSession()
	defer sess.Close()
	if *lintOnly {
		if *query == "" {
			return fmt.Errorf("-lint requires -q")
		}
		diags := lint.Source(*query, graph.ExtractSchema(g), lint.Options{})
		printDiagnostics(out, *query, diags)
		if lint.HasError(diags) {
			return fmt.Errorf("%d lint finding(s)", len(diags))
		}
		return nil
	}
	if *query != "" {
		return runQuery(sess, gov, *query, *queryTimeout, out, false)
	}

	fmt.Fprintln(out, `Interactive Cypher ("exit" quits; "schema", "stats", "explain <query>", "lint <query>", "profile <query>", "limit <rows> <bytes>" and "governor" inspect/configure; "begin", "commit", "rollback" bracket a transaction)`)
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == "exit" || line == "quit":
			return nil
		case line == "schema":
			fmt.Fprint(out, graph.ExtractSchema(g).Describe())
			continue
		case line == "stats":
			fmt.Fprint(out, graph.ComputeStats(g).String())
			continue
		case strings.HasPrefix(line, "limit "):
			var rows int
			var mem int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "limit "), "%d %d", &rows, &mem); err != nil {
				fmt.Fprintln(out, "error: limit requires <max rows> <memory bytes> (0 disables each)")
			} else {
				cypher.WithMaxRows(rows)(ex)
				cypher.WithMemoryBudget(mem)(ex)
				fmt.Fprintf(out, "budgets: max rows %d, memory %d bytes\n", rows, mem)
			}
			continue
		case line == "begin":
			if err := sess.Begin(context.Background()); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "transaction open (single writer; rollback restores the pre-transaction state)")
			}
			continue
		case line == "commit":
			if err := sess.Commit(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "committed")
			}
			continue
		case line == "rollback":
			if err := sess.Rollback(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "rolled back")
			}
			continue
		case line == "governor":
			if gov == nil {
				fmt.Fprintln(out, "no admission governor (start with -query-queue N)")
			} else {
				fmt.Fprintln(out, gov.Stats().String())
			}
			continue
		case strings.HasPrefix(line, "lint "):
			src := strings.TrimSpace(strings.TrimPrefix(line, "lint "))
			diags := lint.Source(src, graph.ExtractSchema(g), lint.Options{})
			if len(diags) == 0 {
				fmt.Fprintln(out, "clean")
			} else {
				printDiagnostics(out, src, diags)
			}
			continue
		case strings.HasPrefix(line, "explain "):
			plan, err := ex.Explain(strings.TrimPrefix(line, "explain "))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, plan)
			}
			continue
		case strings.HasPrefix(line, "profile "):
			if err := runQuery(sess, gov, strings.TrimPrefix(line, "profile "), *queryTimeout, out, true); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			continue
		}
		if err := runQuery(sess, gov, line, *queryTimeout, out, false); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

// printDiagnostics renders lint findings with their source span and, where a
// machine-applicable fix exists, the fixed query.
func printDiagnostics(out io.Writer, src string, diags []lint.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(out, d.String())
		if s, e := d.Span.Start, d.Span.End; s >= 0 && e <= len(src) && s < e {
			fmt.Fprintf(out, "  %s\n", src[s:e])
		}
		if d.Fix != nil {
			if fixed, err := lint.ApplyFix(src, d.Fix); err == nil {
				fmt.Fprintf(out, "  fix (%s): %s\n", d.Fix.Message, fixed)
			}
		}
	}
}

// runQuery streams one query through the session's cursor: rows print as
// the engine produces them (the first 50; the rest are drained and
// counted), and the closing summary carries the stats and any budget
// kill, which arrives after whatever partial rows were streamed.
func runQuery(sess *cypher.Session, gov *governor.Governor, src string, timeout time.Duration, out io.Writer, profile bool) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	cur, err := sess.Run(ctx, src, nil)
	if err != nil {
		if profile && gov != nil {
			fmt.Fprintln(out, "governor:", gov.Stats().String())
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("query exceeded the %s time limit", timeout)
		}
		return err
	}
	defer cur.Close()

	const maxDisplay = 50
	cols := cur.Columns()
	if len(cols) > 0 {
		fmt.Fprintln(out, strings.Join(cols, "\t"))
	}
	rows := 0
	for cur.Next() {
		rows++
		if rows > maxDisplay {
			continue
		}
		row := cur.Record()
		cells := make([]string, len(row))
		for j, d := range row {
			cells[j] = d.Display()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
	}
	if rows > maxDisplay {
		fmt.Fprintf(out, "... (%d more rows)\n", rows-maxDisplay)
	}
	res, err := cur.Summary()
	elapsed := time.Since(start)
	if profile && res != nil {
		fmt.Fprint(out, res.Exec.String())
		if gov != nil {
			fmt.Fprintln(out, "governor:", gov.Stats().String())
		}
	}
	if err != nil {
		var re *cypher.ResourceExhaustedError
		if errors.As(err, &re) {
			fmt.Fprintf(out, "budget kill: %s budget exceeded (limit %d, used %d)\n", re.Resource, re.Limit, re.Used)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("query exceeded the %s time limit", timeout)
		}
		return err
	}
	st := res.Stats
	if st.NodesCreated+st.EdgesCreated+st.NodesDeleted+st.EdgesDeleted+st.PropertiesSet+st.LabelsAdded > 0 {
		fmt.Fprintf(out, "(created %d nodes, %d rels; deleted %d nodes, %d rels; set %d props)\n",
			st.NodesCreated, st.EdgesCreated, st.NodesDeleted, st.EdgesDeleted, st.PropertiesSet)
	}
	fmt.Fprintf(out, "%d row(s) in %s\n", rows, elapsed.Round(time.Microsecond))
	return nil
}
