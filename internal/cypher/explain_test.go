package cypher

import (
	"strings"
	"testing"
)

func TestExplainBasics(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	plan, err := ex.Explain(`MATCH (u:User)-[:POSTS]->(t:Tweet) WHERE u.id > 1
		WITH u.name AS name, count(*) AS c WHERE c > 0
		RETURN name, c ORDER BY c DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"NodeRangeSeek(u:User.id > 1) ~2 candidate(s)",
		"Expand(POSTS, dir=out)",
		"~3 edge(s) of type",
		"Filter: (u.id > 1)",
		"Project (WITH): name, c [grouped aggregate]",
		"Filter: (c > 0)",
		"Project (RETURN): name, c [sort x1] [paginate]",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainAnchors(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	plan, err := ex.Explain(`MATCH (n) MATCH (n)-[:FOLLOWS]->(m:User) RETURN count(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "AllNodesScan(n) ~7 candidate(s)") {
		t.Errorf("unlabeled scan missing:\n%s", plan)
	}
	if !strings.Contains(plan, "AnchorOnBound(n)") {
		t.Errorf("bound anchor missing:\n%s", plan)
	}
}

func TestExplainMutationsAndVarLength(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	plan, err := ex.Explain(`MATCH (a:User)-[:FOLLOWS*1..3]->(b) CREATE (a)-[:AUDITED]->(x:Log) SET x.at = 1 DETACH DELETE x`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hops 1..3", "Create (1 pattern(s))", "Set (1 item(s))", "DetachDelete (1 target(s))"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	plan, err = ex.Explain(`UNWIND [1,2] AS x RETURN x`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Unwind [1, 2] AS x") {
		t.Errorf("unwind missing:\n%s", plan)
	}
}

// TestExplainSargs pins that Explain shows every seek the classifier
// enables, as written, and leaves parameter slots unestimated.
func TestExplainSargs(t *testing.T) {
	ex := NewExecutor(socialGraph())
	for q, want := range map[string]string{
		"MATCH (u:User) WHERE u.name = $n RETURN u":                   "NodeIndexSeek(u:User.name = $n) [label+property index]",
		"MATCH (u:User {name: 'alice'}) RETURN u":                     "NodeIndexSeek(u:User.name = 'alice') ~1 candidate(s) [label+property index]",
		"MATCH (u:User) WHERE u.name IN ['bob', 'carol'] RETURN u":    "NodeIndexSeek(u:User.name IN ['bob', 'carol']) ~2 candidate(s)",
		"MATCH (u:User) WHERE u.id >= $lo RETURN u":                   "NodeRangeSeek(u:User.id >= $lo) [ordered index]",
		"MATCH (u:User) WHERE u.name = $n AND u.id > 1 RETURN u":      "NodeRangeSeek(u:User.id > 1) ~2 candidate(s)", // numeric keys are exact: id 1 is excluded
		"MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since = 2019 RETURN a":    "EdgeIndexSeek(r:FOLLOWS.since = 2019) ~1 endpoint(s) [ordered edge index]",
		"MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since = $y RETURN a":      "EdgeIndexSeek(r:FOLLOWS.since = $y) [ordered edge index]",
		"MATCH (u:User) WHERE u.name = null RETURN u":                 "NodeByLabelScan(u:User) ~3 candidate(s)",
		"MATCH (u:User) WHERE u.name STARTS WITH 'a' RETURN count(*)": "NodeRangeSeek(u:User.name STARTS WITH 'a') ~1 candidate(s)",
	} {
		plan, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, want) {
			t.Errorf("%s: plan missing %q:\n%s", q, want, plan)
		}
	}
	// The executed seek reports its kind explicitly: an IN is an index seek.
	res, err := ex.Run("MATCH (u:User) WHERE u.name IN ['bob', 'carol'] RETURN u.id AS i", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Exec.Seeks[0]; s.Kind != NodeIndexSeek || s.String() != "NodeIndexSeek(u:User.name IN ['bob', 'carol']) est=2 rows=2" {
		t.Fatalf("seek = %+v (%s)", s, s)
	}
}

func TestExplainParseError(t *testing.T) {
	if _, err := NewExecutor(socialGraph()).Explain(`MATCH (`); err == nil {
		t.Error("broken query should fail to explain")
	}
}

func TestExplainSmallestLabelAnchor(t *testing.T) {
	g := socialGraph()
	// Add a second label so multi-label anchoring picks the rarer one.
	ex := NewExecutor(g)
	if _, err := ex.Run(`MATCH (u:User {id: 1}) SET u:Vip`, nil); err != nil {
		t.Fatal(err)
	}
	plan, err := ex.Explain(`MATCH (v:User:Vip) RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NodeByLabelScan(v:Vip) ~1 candidate(s)") {
		t.Errorf("anchor should pick the rarer label:\n%s", plan)
	}
}
