// Package report runs the full experimental grid of the paper and renders
// every table of its evaluation section (Tables 1-6) plus the §4.4 error
// census and §4.5 boundary audit, in a layout matching the paper's.
package report

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/graphrules/graphrules/internal/correction"
	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
	"github.com/graphrules/graphrules/internal/llm"
	"github.com/graphrules/graphrules/internal/mining"
	"github.com/graphrules/graphrules/internal/prompt"
)

// Cell is one experimental configuration's outcome.
type Cell struct {
	Dataset string
	Model   string
	Method  mining.Method
	Mode    prompt.Mode
	Result  *mining.Result
}

// Grid holds the full set of runs for all datasets.
type Grid struct {
	Cells []Cell
}

// RunDataset executes the 2 models x 2 methods x 2 prompting modes grid on
// one graph.
func RunDataset(g *graph.Graph, seed int64) ([]Cell, error) {
	var cells []Cell
	for _, profile := range llm.Profiles() {
		model := llm.NewSim(profile, seed)
		for _, method := range mining.Methods {
			for _, mode := range prompt.Modes {
				// ScoreWorkers only parallelizes metric scoring; it cannot
				// perturb the mined rules, the counts, or the simulated LLM
				// timings.
				res, err := mining.Mine(g, mining.Config{
					Model: model, Method: method, Mode: mode,
					ScoreWorkers: runtime.GOMAXPROCS(0),
				})
				if err != nil {
					return nil, fmt.Errorf("report: %s/%s/%s/%s: %w", g.Name(), profile.Name, method, mode, err)
				}
				cells = append(cells, Cell{
					Dataset: g.Name(), Model: profile.Name, Method: method, Mode: mode, Result: res,
				})
			}
		}
	}
	return cells, nil
}

// RunAll executes the grid for the named datasets (nil = all of Table 1).
func RunAll(names []string, opts datasets.Options, seed int64) (*Grid, error) {
	if names == nil {
		names = datasets.Names()
	}
	grid := &Grid{}
	for _, name := range names {
		gen, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		cells, err := RunDataset(gen(opts), seed)
		if err != nil {
			return nil, err
		}
		grid.Cells = append(grid.Cells, cells...)
	}
	return grid, nil
}

// cell returns the cell for a configuration, or nil.
func (g *Grid) cell(dataset, model string, method mining.Method, mode prompt.Mode) *Cell {
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Dataset == dataset && c.Model == model && c.Method == method && c.Mode == mode {
			return c
		}
	}
	return nil
}

// Datasets returns the dataset names present in the grid, in Table 1 order.
func (g *Grid) Datasets() []string {
	seen := map[string]bool{}
	var out []string
	for _, want := range datasets.Names() {
		for _, c := range g.Cells {
			if c.Dataset == want && !seen[want] {
				seen[want] = true
				out = append(out, want)
			}
		}
	}
	// Any non-standard datasets, alphabetically.
	var extra []string
	for _, c := range g.Cells {
		if !seen[c.Dataset] {
			seen[c.Dataset] = true
			extra = append(extra, c.Dataset)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Table1 renders the dataset-statistics table from live graphs.
func Table1(opts datasets.Options) (string, error) {
	var b strings.Builder
	b.WriteString("Table 1: Size of the datasets\n")
	fmt.Fprintf(&b, "%-15s %8s %8s %12s %12s\n", "", "Nodes", "Edges", "Node Labels", "Edge Labels")
	for _, info := range datasets.Table1 {
		gen, err := datasets.ByName(info.Name)
		if err != nil {
			return "", err
		}
		g := gen(opts)
		fmt.Fprintf(&b, "%-15s %8d %8d %12d %12d\n",
			info.Name, g.NodeCount(), g.EdgeCount(), len(g.NodeLabels()), len(g.EdgeTypes()))
	}
	return b.String(), nil
}

// MetricsTable renders the Table 2/3/4 layout (support, coverage,
// confidence per model x method x prompting) for one dataset.
func (g *Grid) MetricsTable(dataset string, tableNo int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d: Support, coverage and confidence for the %s dataset\n", tableNo, dataset)
	fmt.Fprintf(&b, "%-10s | %-38s | %-38s\n", "", "Sliding Window Attention", "RAG")
	fmt.Fprintf(&b, "%-10s | %6s %9s %7s %7s | %6s %9s %7s %7s\n",
		"", "#rules", "Supp", "Cov%", "Conf%", "#rules", "Supp", "Cov%", "Conf%")
	for _, mode := range prompt.Modes {
		fmt.Fprintf(&b, "--- %s ---\n", mode)
		for _, profile := range llm.Profiles() {
			swa := g.cell(dataset, profile.Name, mining.SlidingWindow, mode)
			rag := g.cell(dataset, profile.Name, mining.RAG, mode)
			if swa == nil || rag == nil {
				continue
			}
			a, r := swa.Result.Aggregate, rag.Result.Aggregate
			fmt.Fprintf(&b, "%-10s | %6d %9.0f %7.2f %7.2f | %6d %9.0f %7.2f %7.2f\n",
				profile.Name,
				a.Rules, a.MeanSupport, a.MeanCoverage, a.MeanConfidence,
				r.Rules, r.MeanSupport, r.MeanCoverage, r.MeanConfidence)
		}
	}
	return b.String()
}

// TimeTable renders Table 5 (simulated LLM mining times in seconds).
func (g *Grid) TimeTable() string {
	var b strings.Builder
	b.WriteString("Table 5: LLM rule mining times (simulated seconds)\n")
	fmt.Fprintf(&b, "%-10s | %-25s | %-25s\n", "Model", "Sliding Window Attention", "RAG")
	fmt.Fprintf(&b, "%-10s | %11s %13s | %11s %13s\n", "", "Zero-shot", "Few-shot", "Zero-shot", "Few-shot")
	for _, dataset := range g.Datasets() {
		fmt.Fprintf(&b, "--- %s ---\n", dataset)
		for _, profile := range llm.Profiles() {
			row := []float64{}
			for _, method := range mining.Methods {
				for _, mode := range prompt.Modes {
					c := g.cell(dataset, profile.Name, method, mode)
					if c == nil {
						row = append(row, -1)
						continue
					}
					// Mining time only: RAG vector-index construction is
					// one-time setup the paper's Table 5 excludes.
					row = append(row, c.Result.MiningSeconds)
				}
			}
			fmt.Fprintf(&b, "%-10s | %11.2f %13.2f | %11.2f %13.2f\n",
				profile.Name, row[0], row[1], row[2], row[3])
		}
	}
	return b.String()
}

// CorrectnessTable renders Table 6 (correct / generated Cypher queries).
func (g *Grid) CorrectnessTable() string {
	var b strings.Builder
	b.WriteString("Table 6: Number of correctly generated Cypher queries\n")
	fmt.Fprintf(&b, "%-10s | %-25s | %-25s\n", "Model", "Sliding Window Attention", "RAG")
	fmt.Fprintf(&b, "%-10s | %11s %13s | %11s %13s\n", "", "Zero-shot", "Few-shot", "Zero-shot", "Few-shot")
	for _, dataset := range g.Datasets() {
		fmt.Fprintf(&b, "--- %s ---\n", dataset)
		for _, profile := range llm.Profiles() {
			cells := []string{}
			for _, method := range mining.Methods {
				for _, mode := range prompt.Modes {
					c := g.cell(dataset, profile.Name, method, mode)
					if c == nil {
						cells = append(cells, "-")
						continue
					}
					cells = append(cells, fmt.Sprintf("%d/%d", c.Result.CypherCorrect, c.Result.CypherTotal))
				}
			}
			fmt.Fprintf(&b, "%-10s | %11s %13s | %11s %13s\n",
				profile.Name, cells[0], cells[1], cells[2], cells[3])
		}
	}
	return b.String()
}

// ErrorCensus renders the §4.4 error-category counts across all runs,
// followed by the finer-grained per-analyzer lint census (which also counts
// findings outside the paper's three error classes, such as unknown labels
// or cartesian-product warnings).
func (g *Grid) ErrorCensus() string {
	totals := map[correction.Category]int{}
	lintTotals := map[string]int{}
	for _, c := range g.Cells {
		for cat, n := range c.Result.ErrorCounts {
			totals[cat] += n
		}
		for name, n := range c.Result.LintCounts {
			lintTotals[name] += n
		}
	}
	return Census(totals, lintTotals)
}

// Census renders one §4.4 error-category table plus the per-analyzer lint
// breakdown; it is shared by the grid report and `rulemine -table errors`.
func Census(errCounts map[correction.Category]int, lintCounts map[string]int) string {
	var b strings.Builder
	b.WriteString("Error categories across all generated query sets (§4.4)\n")
	for _, cat := range correction.Categories {
		fmt.Fprintf(&b, "%-22s %4d\n", cat.String(), errCounts[cat])
	}
	b.WriteString("\nLint findings by analyzer\n")
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		seen[a.Name] = true
		if n := lintCounts[a.Name]; n > 0 {
			fmt.Fprintf(&b, "%-22s %4d  (%s)\n", a.Name, n, a.Severity)
		}
	}
	// Findings from pseudo-analyzers not in the registry (the "syntax"
	// parse gate and the cross-query "ruleset" pass), alphabetically.
	var rest []string
	for name, n := range lintCounts {
		if !seen[name] && n > 0 {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		sev := lint.Error
		if name == lint.RuleSetAnalyzer {
			sev = lint.Warning
		}
		fmt.Fprintf(&b, "%-22s %4d  (%s)\n", name, lintCounts[name], sev)
	}
	return b.String()
}

// Boundaries renders the §4.5 broken-pattern counts per dataset.
func (g *Grid) Boundaries() string {
	var b strings.Builder
	b.WriteString("Patterns broken across window boundaries (§4.5; paper: 6 / 11 / 6)\n")
	for _, dataset := range g.Datasets() {
		for _, c := range g.Cells {
			if c.Dataset == dataset && c.Method == mining.SlidingWindow {
				fmt.Fprintf(&b, "%-15s %4d broken blocks over %d windows\n",
					dataset, c.Result.BrokenPatterns, c.Result.Windows)
				break
			}
		}
	}
	return b.String()
}

// TableForDataset maps a dataset name to its paper table number (2-4).
func TableForDataset(name string) int {
	switch name {
	case "WWC2019":
		return 2
	case "Cybersecurity":
		return 3
	case "Twitter":
		return 4
	default:
		return 0
	}
}
