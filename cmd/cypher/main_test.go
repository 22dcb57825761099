package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSingleQuery(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "Cybersecurity", "-q", "MATCH (u:User) RETURN count(*) AS n"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Loaded Cybersecurity") || !strings.Contains(s, "400") {
		t.Errorf("output wrong:\n%s", s)
	}
	if !strings.Contains(s, "1 row(s)") {
		t.Error("row count missing")
	}
}

func TestREPL(t *testing.T) {
	input := strings.Join([]string{
		"",
		"schema",
		"stats",
		"explain MATCH (u:User) RETURN count(*) AS n",
		"explain BROKEN (",
		"MATCH (u:User) RETURN count(*) AS n",
		"profile MATCH (u:User) RETURN count(*) AS n",
		"profile BROKEN (",
		"THIS IS NOT CYPHER",
		"exit",
	}, "\n")
	var out bytes.Buffer
	err := run([]string{"-dataset", "Cybersecurity"}, strings.NewReader(input), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Node labels:") {
		t.Error("schema command failed")
	}
	if !strings.Contains(s, "MaxInDegree") {
		t.Error("stats command failed")
	}
	if !strings.Contains(s, "NodeByLabelScan(u:User)") {
		t.Error("explain command failed")
	}
	if !strings.Contains(s, "plan cache hit: true") {
		t.Errorf("profile command failed:\n%s", s)
	}
	if !strings.Contains(s, "error:") {
		t.Error("bad query should print an error, not abort")
	}
	if !strings.Contains(s, "400") {
		t.Error("query result missing")
	}
}

// TestREPLTransactions drives begin/commit/rollback: committed writes
// persist in the session, rolled-back ones vanish, and transaction
// commands out of order report errors instead of aborting the REPL.
func TestREPLTransactions(t *testing.T) {
	input := strings.Join([]string{
		"commit", // no transaction open: error line, REPL continues
		"begin",
		"CREATE (a:Keep {id: 1})",
		"commit",
		"begin",
		"CREATE (b:Drop {id: 2})",
		"rollback",
		"MATCH (n:Keep) RETURN count(*) AS kept",
		"MATCH (n:Drop) RETURN count(*) AS dropped",
		"exit",
	}, "\n")
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "error:") {
		t.Error("commit without a transaction should print an error")
	}
	if !strings.Contains(s, "transaction open") || !strings.Contains(s, "committed") ||
		!strings.Contains(s, "rolled back") {
		t.Errorf("transaction command feedback missing:\n%s", s)
	}
	// kept count 1, dropped count 0, each under its own header.
	if !strings.Contains(s, "kept\n1") {
		t.Errorf("committed write lost:\n%s", s)
	}
	if !strings.Contains(s, "dropped\n0") {
		t.Errorf("rolled-back write survived:\n%s", s)
	}
}

func TestREPLEOF(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Loaded empty") {
		t.Error("empty graph default missing")
	}
}

func TestMutationStats(t *testing.T) {
	var out bytes.Buffer
	input := "CREATE (a:X {id: 1})-[:R]->(b:X {id: 2})\nexit\n"
	if err := run(nil, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "created 2 nodes, 1 rels") {
		t.Errorf("mutation stats missing:\n%s", out.String())
	}
}

func TestRowTruncation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "Cybersecurity", "-q", "MATCH (u:User) RETURN u.id AS id"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "more rows") {
		t.Error("long results should truncate with a notice")
	}
}

func TestBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "nope"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run([]string{"-snapshot", "/no/such"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing snapshot should fail")
	}
	if err := run([]string{"-q", "BROKEN ("}, strings.NewReader(""), &out); err == nil {
		t.Error("broken single query should fail")
	}
}
