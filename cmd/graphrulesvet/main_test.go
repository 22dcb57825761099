package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/analysis"
)

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanPackage(t *testing.T) {
	code, stdout, stderr := runVet(t, "./testdata/cleanpkg")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean package produced output:\n%s", stdout)
	}
}

func TestExitFindings(t *testing.T) {
	code, stdout, stderr := runVet(t, "./testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"(ctxflow)", "(typederr)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("text output missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr missing findings summary:\n%s", stderr)
	}
}

func TestExitUsage(t *testing.T) {
	cases := [][]string{
		{"-enable", "nosuchanalyzer", "./testdata/cleanpkg"},
		{"-disable", "nosuchanalyzer", "./testdata/cleanpkg"},
		{"-format", "xml", "./testdata/cleanpkg"},
		{"-nosuchflag"},
		{"./testdata/nosuchdir"},
	}
	for _, args := range cases {
		if code, stdout, _ := runVet(t, args...); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2; stdout:\n%s", args, code, stdout)
		}
	}
}

func TestEnableDisableFiltering(t *testing.T) {
	// Only typederr enabled: the ctxflow violation is invisible.
	code, stdout, _ := runVet(t, "-enable", "typederr", "./testdata/dirty")
	if code != 1 {
		t.Fatalf("-enable typederr exit = %d, want 1", code)
	}
	if strings.Contains(stdout, "ctxflow") || !strings.Contains(stdout, "typederr") {
		t.Errorf("-enable typederr output wrong:\n%s", stdout)
	}

	// Both offending analyzers disabled: the dirty package passes.
	code, stdout, _ = runVet(t, "-disable", "ctxflow,typederr", "./testdata/dirty")
	if code != 0 {
		t.Fatalf("-disable ctxflow,typederr exit = %d, want 0; stdout:\n%s", code, stdout)
	}
}

func TestListRoster(t *testing.T) {
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{
		"copylocks", "ctxflow", "frozenwrite",
		"lockorder", "loopclosure", "nilness", "typederr", "unusedwrite",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing %s:\n%s", name, stdout)
		}
	}
}

func TestVersionProbe(t *testing.T) {
	code, stdout, _ := runVet(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "graphrulesvet version") {
		t.Errorf("-V=full output %q lacks version banner", stdout)
	}
}

// TestJSONGolden pins the machine-readable output shape: one array of
// findings with file/span/severity/analyzer/message fields. Paths are
// normalized to basenames because the loader reports them relative to
// the go list directory.
func TestJSONGolden(t *testing.T) {
	code, stdout, stderr := runVet(t, "-format", "json", "./testdata/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	var got []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, stdout)
	}
	for i := range got {
		got[i].File = filepath.Base(got[i].File)
	}
	want := []analysis.Finding{
		{File: "dirty.go", Line: 15, Col: 9, EndLine: 15, EndCol: 29,
			Severity: "error", Analyzer: "ctxflow",
			Message: "context.Background() in library code severs cancellation; thread the caller's ctx (or mark a sanctioned shim with //graphrules:ctxshim)"},
		{File: "dirty.go", Line: 18, Col: 7, EndLine: 18, EndCol: 21,
			Severity: "error", Analyzer: "typederr",
			Message: "error compared with ==; use errors.Is to match across wrapping layers"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), stdout)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("finding %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	code, stdout, _ := runVet(t, "-format", "json", "./testdata/cleanpkg")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean JSON output = %q, want []", stdout)
	}
}

// TestVetToolProtocol drives the full go vet -vettool path end to end:
// build the checker, hand it to go vet, and check both the clean and
// dirty fixtures' exit behavior and diagnostics.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "graphrulesvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	vet := func(pkg string) (int, string) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, pkg)
		cmd.Env = append(os.Environ(), "GOFLAGS=")
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), string(out)
		}
		t.Fatalf("go vet: %v\n%s", err, out)
		return -1, ""
	}

	if code, out := vet("./testdata/cleanpkg"); code != 0 {
		t.Errorf("go vet on clean fixture exited %d:\n%s", code, out)
	}
	code, out := vet("./testdata/dirty")
	if code == 0 {
		t.Fatalf("go vet on dirty fixture exited 0:\n%s", out)
	}
	for _, want := range []string{"severs cancellation", "errors.Is"} {
		if !strings.Contains(out, want) {
			t.Errorf("go vet output missing %q:\n%s", want, out)
		}
	}
}

// TestRepoClean is the regression pin for the whole tree: every real
// violation was fixed or sanctioned when the suite landed, and this test
// keeps it that way.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	code, stdout, stderr := runVet(t, "-C", "../..", "./...")
	if code != 0 {
		t.Errorf("graphrulesvet over the repo exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
