// Command graphrulesvet is the engine-invariant multichecker: a custom
// static-analysis suite proving this repo's hand-enforced disciplines —
// the MVCC commitMu→mu lock order, ctx-first APIs, typed-error matching, frozen-snapshot immutability —
// at compile time, plus curated stock-lite passes (copylocks,
// loopclosure, unusedwrite, nilness).
//
// It runs two ways:
//
//	graphrulesvet ./...                # standalone, over package patterns
//	go vet -vettool=$(which graphrulesvet) ./...   # as a vet tool
//
// Standalone flags:
//
//	-enable a,b    run only these analyzers
//	-disable a,b   skip these analyzers
//	-format json   machine-readable diagnostics (CI annotation)
//	-list          print the analyzer roster and exit
//	-tests         also analyze _test.go files (analyzers that exempt
//	               tests still do)
//	-C dir         change directory before resolving patterns
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/graphrules/graphrules/internal/analysis"
	"github.com/graphrules/graphrules/internal/analysis/analyzers"
)

const version = "graphrulesvet version 1 (graphrules engine-invariant analyzers)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The go command probes `-V=full` before using a vet tool; answer
	// before normal flag parsing so the probe never trips on it.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" || a == "-V" {
			fmt.Fprintln(stdout, version)
			return 0
		}
	}
	// `go vet` may interrogate supported flags with -flags.
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	fs := flag.NewFlagSet("graphrulesvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	format := fs.String("format", "text", "output format: text or json")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	tests := fs.Bool("tests", false, "also analyze _test.go files")
	chdir := fs.String("C", "", "resolve package patterns in this directory")
	jsonVet := fs.Bool("json", false, "unit-checker mode: emit JSON diagnostics (set by go vet)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected, err := analysis.Filter(analyzers.All(), analysis.SplitList(*enable), analysis.SplitList(*disable))
	if err != nil {
		fmt.Fprintln(stderr, "graphrulesvet:", err)
		return 2
	}

	if *list {
		for _, a := range selected {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Summary())
		}
		return 0
	}

	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "graphrulesvet: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	// go vet -vettool invocation: a single vet.cfg positional argument.
	if analysis.IsVetCfg(fs.Args()) {
		return analysis.RunVetTool(fs.Args()[0], selected, *jsonVet || *format == "json", stdout, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: *chdir, Tests: *tests}, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "graphrulesvet:", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			// Surfaced but non-fatal: analysis is best-effort on
			// packages that do not fully type-check.
			fmt.Fprintf(stderr, "graphrulesvet: %s: typecheck: %v\n", p.ImportPath, terr)
		}
	}

	findings, err := analysis.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintln(stderr, "graphrulesvet:", err)
		return 2
	}
	if *format == "json" {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "graphrulesvet:", err)
			return 2
		}
	} else {
		analysis.WriteText(stdout, findings)
	}
	if len(findings) > 0 {
		if *format == "text" {
			fmt.Fprintf(stderr, "graphrulesvet: %d finding(s) in %s\n", len(findings), strings.Join(patterns, " "))
		}
		return 1
	}
	return 0
}
