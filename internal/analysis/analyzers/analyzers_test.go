package analyzers_test

import (
	"sort"
	"testing"

	"github.com/graphrules/graphrules/internal/analysis"
	"github.com/graphrules/graphrules/internal/analysis/analyzers"
	"github.com/graphrules/graphrules/internal/analysis/atest"
)

// Each corpus holds at least one true positive (a `// want` line) and
// near-miss negatives exercising the analyzer's sanctioned shapes; any
// unexpected finding or unmatched want fails the test.

func TestLockOrderCorpus(t *testing.T) { atest.Run(t, analyzers.LockOrder, "testdata/lockorder") }

func TestCtxFlowCorpus(t *testing.T) { atest.Run(t, analyzers.CtxFlow, "testdata/ctxflow") }

func TestTypedErrCorpus(t *testing.T) { atest.Run(t, analyzers.TypedErr, "testdata/typederr") }

func TestFrozenWriteCorpus(t *testing.T) {
	atest.Run(t, analyzers.FrozenWrite, "testdata/frozenwrite")
}

func TestCopyLocksCorpus(t *testing.T) { atest.Run(t, analyzers.CopyLocks, "testdata/copylocks") }

func TestLoopClosureCorpus(t *testing.T) {
	atest.Run(t, analyzers.LoopClosure, "testdata/loopclosure")
}

func TestUnusedWriteCorpus(t *testing.T) {
	atest.Run(t, analyzers.UnusedWrite, "testdata/unusedwrite")
}

func TestNilnessCorpus(t *testing.T) { atest.Run(t, analyzers.Nilness, "testdata/nilness") }

// TestAllCleanOnCleanCorpus pins the whole suite silent on an
// engine-shaped package that follows every discipline: correct lock
// order, ctx threading, errors.Is matching, read-only snapshot use.
func TestAllCleanOnCleanCorpus(t *testing.T) {
	for _, a := range analyzers.All() {
		atest.RunClean(t, a, "testdata/clean")
	}
}

func TestRegistry(t *testing.T) {
	all := analyzers.All()
	if len(all) != 8 {
		t.Fatalf("All() = %d analyzers, want 8", len(all))
	}
	custom := analyzers.Custom()
	if len(custom) != 4 {
		t.Fatalf("Custom() = %d analyzers, want 4", len(custom))
	}
	names := map[string]bool{}
	var order []string
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc or run function", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		order = append(order, a.Name)
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("All() is not sorted by name: %v", order)
	}
	for _, a := range custom {
		if !names[a.Name] {
			t.Errorf("Custom() analyzer %q is not in All()", a.Name)
		}
	}
	var _ []*analysis.Analyzer = all
}
