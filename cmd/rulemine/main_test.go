package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/datasets"
	"github.com/graphrules/graphrules/internal/storage"
)

func TestRunDefaults(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "Cybersecurity"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Dataset Cybersecurity: 953 nodes, 4838 edges",
		"Llama-3", "Sliding Window Attention", "zero-shot",
		"Cypher correctness:",
		"Aggregate:",
		"confidence",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRAGMixtralVerbose(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "Cybersecurity", "-model", "mixtral", "-method", "rag", "-mode", "few", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Mixtral") || !strings.Contains(s, "RAG") || !strings.Contains(s, "few-shot") {
		t.Errorf("config not reflected:\n%s", s)
	}
	if !strings.Contains(s, "generated: ") {
		t.Error("-v should print generated queries")
	}
}

func TestRunFromSnapshot(t *testing.T) {
	g := datasets.Cybersecurity(datasets.DefaultOptions())
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := storage.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-snapshot", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "953 nodes") {
		t.Error("snapshot not loaded")
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "Cybersecurity", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("-json output not JSON: %v", err)
	}
	if decoded["dataset"] != "Cybersecurity" {
		t.Error("json dataset wrong")
	}
}

func TestRunGoverned(t *testing.T) {
	// Generous budgets plus admission control: every rule still scores and
	// the governor reconciles its counters in the printed summary.
	var out bytes.Buffer
	if err := run([]string{"-dataset", "Cybersecurity",
		"-max-rows", "1000000", "-mem-budget", "1073741824",
		"-query-queue", "2", "-score-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Governor:") {
		t.Errorf("governed run should print governor stats:\n%s", s)
	}
	if strings.Contains(s, "evaluation failed") {
		t.Errorf("generous budgets should not kill any query:\n%s", s)
	}
}

func TestRunTinyRowBudget(t *testing.T) {
	// A one-row budget kills scoring queries that keep rows with the typed
	// error, surfaced per rule as an evaluation failure — the run itself
	// succeeds. Mixtral mines an edge-uniqueness rule here, whose support
	// query keeps one row per (a, b, value) group; a single-property
	// uniqueness rule groups by a key-order walk and keeps none.
	var out bytes.Buffer
	if err := run([]string{"-dataset", "Cybersecurity", "-model", "mixtral", "-max-rows", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-row budget") {
		t.Errorf("tiny row budget should surface budget kills:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-dataset", "nope"},
		{"-model", "gpt4"},
		{"-method", "teleport"},
		{"-mode", "many"},
		{"-encoder", "morse"},
		{"-snapshot", "/no/such/file"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
