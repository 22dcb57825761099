package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWALWriteThenReplay: mutations run with -wal land in the log file,
// and -replay rebuilds the graph from exactly the committed epochs.
func TestWALWriteThenReplay(t *testing.T) {
	walFile := filepath.Join(t.TempDir(), "graph.wal")

	input := strings.Join([]string{
		"CREATE (a:City {name: 'Oslo'}) RETURN a",
		"CREATE (b:City {name: 'Bergen'}) RETURN b",
		"MATCH (c:City) RETURN count(c) AS n",
		"exit",
	}, "\n")
	var out bytes.Buffer
	if err := run([]string{"-wal", walFile, "-commit-window", "5ms"},
		strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "group commit, 5ms window") {
		t.Errorf("WAL banner missing:\n%s", out.String())
	}
	if fi, err := os.Stat(walFile); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL file empty or missing: %v", err)
	}

	out.Reset()
	if err := run([]string{"-replay", walFile, "-q", "MATCH (c:City) RETURN count(c) AS n"},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Recovered") {
		t.Errorf("recovery banner missing:\n%s", s)
	}
	if !strings.Contains(s, "Loaded recovered: 2 nodes, 0 edges") {
		t.Errorf("replayed graph wrong:\n%s", s)
	}
}

// TestWALReplayTornTail: a torn trailing frame is dropped and reported,
// and the committed prefix survives.
func TestWALReplayTornTail(t *testing.T) {
	walFile := filepath.Join(t.TempDir(), "torn.wal")
	var out bytes.Buffer
	if err := run([]string{"-wal", walFile, "-q", "CREATE (a:K) RETURN a"},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	// Append the first half of the same frame again: a torn final write.
	if err := os.WriteFile(walFile, append(data, data[:len(data)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-replay", walFile, "-q", "MATCH (a:K) RETURN count(a) AS n"},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dropped a torn tail") {
		t.Errorf("torn tail not reported:\n%s", s)
	}
	if !strings.Contains(s, "Loaded recovered: 1 nodes, 0 edges") {
		t.Errorf("committed prefix lost:\n%s", s)
	}
}

// TestPinSnapshotFlag: the flag parses and queries still run.
func TestPinSnapshotFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "Cybersecurity", "-pin-snapshot",
		"-q", "MATCH (u:User) RETURN count(*) AS n"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "400") {
		t.Errorf("pinned query result missing:\n%s", out.String())
	}
}
