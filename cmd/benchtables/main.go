// Command benchtables regenerates every table of the paper's evaluation
// section (Tables 1-6), plus the §4.4 error census and §4.5 boundary audit,
// by running the full experimental grid.
//
// Usage:
//
//	benchtables                       # everything, all three datasets
//	benchtables -table 2              # only Table 2 (runs WWC2019)
//	benchtables -datasets WWC2019,Cybersecurity
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	table := fs.String("table", "all", "which table to regenerate: 1-6, errors, boundaries or all")
	names := fs.String("datasets", "", "comma-separated dataset subset (default: all)")
	seed := fs.Int64("seed", 42, "model seed")
	graphSeed := fs.Int64("graph-seed", 42, "dataset generator seed")
	violations := fs.Float64("violations", 0.03, "violation injection rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := datasets.Options{Seed: *graphSeed, ViolationRate: *violations}

	if *table == "1" {
		t1, err := report.Table1(opts)
		if err != nil {
			return err
		}
		fmt.Print(t1)
		return nil
	}

	var subset []string
	if *names != "" {
		subset = strings.Split(*names, ",")
	}
	// Single-table runs only need their own dataset.
	switch *table {
	case "2":
		subset = []string{"WWC2019"}
	case "3":
		subset = []string{"Cybersecurity"}
	case "4":
		subset = []string{"Twitter"}
	}

	start := time.Now()
	grid, err := report.RunAll(subset, opts, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "grid of %d runs completed in %s\n\n", len(grid.Cells), time.Since(start).Round(time.Millisecond))

	printed := false
	show := func(want string, render func() string) {
		if *table == want || *table == "all" {
			if printed {
				fmt.Println()
			}
			fmt.Print(render())
			printed = true
		}
	}

	if *table == "all" {
		t1, err := report.Table1(opts)
		if err != nil {
			return err
		}
		fmt.Print(t1)
		printed = true
	}
	for _, name := range grid.Datasets() {
		name := name
		no := report.TableForDataset(name)
		show(fmt.Sprint(no), func() string { return grid.MetricsTable(name, no) })
	}
	show("5", grid.TimeTable)
	show("6", grid.CorrectnessTable)
	show("errors", grid.ErrorCensus)
	show("boundaries", grid.Boundaries)
	if !printed {
		return fmt.Errorf("nothing to print for -table %q", *table)
	}
	return nil
}
