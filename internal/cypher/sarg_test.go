package cypher

import (
	"math"
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// rowStrings renders result rows canonically for order-sensitive
// comparison.
func rowStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.Write(d.appendHashable(nil))
		}
		out = append(out, b.String())
	}
	return out
}

// scanExecutor returns an executor that binds no Sarg, so every anchor
// scans: the pure-scan side of a seek equivalence check.
func scanExecutor(g *graph.Graph) *Executor {
	ex := NewExecutor(g)
	ex.noSeeks = true
	return ex
}

// bindWhere classifies and binds the WHERE of `MATCH (a) WHERE <where>` on
// a default executor.
func bindWhere(t *testing.T, where string, params map[string]graph.Value) []access {
	t.Helper()
	q, err := Parse("MATCH (a) WHERE " + where + " RETURN a")
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	return NewExecutor(graph.New("t")).bindSargs(q.Clauses[0].(*MatchClause).sargs, params, false)
}

func TestExtractRanges(t *testing.T) {
	cases := []struct {
		where string
		vr    string
		key   string
		want  string // interval rendering, "" = no range extracted
	}{
		{"a.x > 5", "a", "x", "> 5"},
		{"a.x >= 5", "a", "x", ">= 5"},
		{"a.x < 5", "a", "x", "< 5"},
		{"a.x <= 5", "a", "x", "<= 5"},
		{"5 < a.x", "a", "x", "> 5"},
		{"a.x > 2 AND a.x <= 9", "a", "x", "> 2 AND <= 9"},
		{"a.x > 2 AND a.x > 7", "a", "x", "> 7"},
		{"a.x >= $lo AND a.x < 9", "a", "x", ">= $lo AND < 9"},
		{"a.x > 2 AND a.x > $lo", "a", "x", "> 2"}, // $lo = 1 binds looser
		{"a.name STARTS WITH 'al'", "a", "name", "STARTS WITH 'al'"},
		{"a.x > 5 OR a.y < 2", "a", "x", ""}, // OR is not a conjunction
		{"a.x > b.y", "a", "x", ""},          // non-constant bound
		{"a.x > $missing", "a", "x", ""},     // unbound slot: scan
		{"a.x = 5", "a", "x", ""},            // equality is a point set
	}
	for _, tc := range cases {
		got := ""
		for _, a := range bindWhere(t, tc.where, map[string]graph.Value{"lo": graph.NewInt(1)}) {
			if !a.point() && a.Var == tc.vr && a.Key == tc.key {
				got = a.String()
			}
		}
		if got != tc.want {
			t.Errorf("range of %q on %s.%s = %q, want %q", tc.where, tc.vr, tc.key, got, tc.want)
		}
	}
}

// TestSargClassification pins which predicates the one classifier accepts
// and how a run binds them: literal, list and $parameter slots in either
// operand order, with non-seekable values falling back to the scan.
func TestSargClassification(t *testing.T) {
	params := map[string]graph.Value{
		"n":    graph.NewString("bob"),
		"ns":   graph.NewList(graph.NewInt(1), graph.NewFloat(1), graph.NewInt(2)),
		"null": graph.Null,
		"list": graph.NewList(graph.NewInt(1)),
	}
	cases := []struct {
		where string
		want  string // bound accesses as "var.key term", ";"-joined
	}{
		{"a.k = 5", "a.k = 5"},
		{"5 = a.k", "a.k = 5"},
		{"a.k = $n", "a.k = $n"},
		{"a.k IN [1, 'x']", "a.k IN [1, 'x']"},
		{"a.k IN $ns", "a.k IN $ns"},
		{"a.k = 1 AND 3 > a.j AND a.s STARTS WITH $n", "a.k = 1;a.j < 3;a.s STARTS WITH $n"},
		{"a.k = null", ""},          // null never seeks
		{"a.k = [1]", ""},           // a list is not a point
		{"a.k IN [1, null]", ""},    // nor is a list holding a null
		{"a.k IN [1, a.j]", ""},     // non-constant element
		{"'x' STARTS WITH a.k", ""}, // no mirror image
		{"$n IN a.k", ""},           // no mirror image
		{"a.k = $null", ""},         // null parameter
		{"a.k = $list", ""},         // list parameter for =
		{"a.k IN $n", ""},           // scalar parameter for IN
		{"a.k = $absent", ""},       // missing parameter
		{"a.k <> 5", ""},
		{"NOT a.k = 5", ""},
	}
	for _, tc := range cases {
		var got []string
		for _, a := range bindWhere(t, tc.where, params) {
			got = append(got, a.Var+"."+a.Key+" "+a.String())
		}
		if s := strings.Join(got, ";"); s != tc.want {
			t.Errorf("%q binds %q, want %q", tc.where, s, tc.want)
		}
	}
	// IN points are deduplicated by sort key: 1 and 1.0 probe once.
	acc := bindWhere(t, "a.k IN $ns", params)
	if len(acc) != 1 || len(acc[0].points) != 2 {
		t.Fatalf("IN $ns points = %+v, want 2 distinct", acc)
	}
}

// TestRangePushdownEquivalence pins that range seeks change the access
// path (RangeSeeks > 0) but never the rows or their order.
func TestRangePushdownEquivalence(t *testing.T) {
	g := socialGraph()
	queries := []string{
		"MATCH (u:User) WHERE u.id >= 2 RETURN u.name AS n",
		"MATCH (u:User) WHERE u.id > 1 AND u.id < 3 RETURN u.name AS n",
		"MATCH (t:Tweet) WHERE t.createdAt <= 1000 RETURN t.id AS i",
		"MATCH (u:User) WHERE u.name STARTS WITH 'a' RETURN u.id AS i",
		// A range ranks with a label (plan.go), so the range end is written first.
		"MATCH (t:Tweet)<-[:POSTS]-(u:User) WHERE t.createdAt < 1500 RETURN u.name AS n, t.id AS i",
	}
	on, off := NewExecutor(g), scanExecutor(g)
	for _, q := range queries {
		ron, err := on.Run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		roff, err := off.Run(q, nil)
		if err != nil {
			t.Fatalf("%s (pushdown off): %v", q, err)
		}
		a, b := rowStrings(ron), rowStrings(roff)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: pushdown changed rows\non:  %v\noff: %v", q, a, b)
		}
		if ron.Exec.RangeSeeks == 0 {
			t.Errorf("%s: expected a range seek with pushdown on, stats: %+v", q, ron.Exec)
		}
		if roff.Exec.RangeSeeks != 0 {
			t.Errorf("%s: pushdown off still seeked: %+v", q, roff.Exec)
		}
	}
}

// TestEdgePropSeek pins the edge-index path for unlabeled anchors with
// typed, property-constrained relationships.
func TestEdgePropSeek(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	for _, q := range []string{
		"MATCH (a)-[r:FOLLOWS {since: 2019}]->(b) RETURN a.name AS x, b.name AS y",
		"MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since >= 2019 RETURN a.name AS x",
	} {
		res, err := ex.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", q, len(res.Rows))
		}
		if res.Exec.EdgeSeeks == 0 {
			t.Errorf("%s: expected an edge seek, stats: %+v", q, res.Exec)
		}
	}
	// Same rows without pushdown.
	off := scanExecutor(g)
	res, err := off.Run("MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since >= 2019 RETURN a.name AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Exec.EdgeSeeks != 0 {
		t.Fatalf("pushdown-off edge query: %d rows, %d edge seeks", len(res.Rows), res.Exec.EdgeSeeks)
	}
}

// TestSeekInfoReported checks Explain and ExecStats surface the chosen seek
// bounds with estimated vs. actual rows.
func TestSeekInfoReported(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	res, err := ex.Run("MATCH (u:User) WHERE u.id >= 2 RETURN count(*) AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exec.Seeks) == 0 {
		t.Fatalf("no SeekInfo recorded: %+v", res.Exec)
	}
	s := res.Exec.Seeks[0]
	if s.Var != "u" || s.Label != "User" || s.Key != "id" || s.Kind != NodeRangeSeek {
		t.Fatalf("seek descriptor: %+v", s)
	}
	if !strings.Contains(s.String(), "NodeRangeSeek(u:User.id >= 2)") {
		t.Fatalf("seek rendering: %s", s.String())
	}
	if s.Est != 2 || s.Rows != 2 {
		t.Fatalf("est/rows = %d/%d, want 2/2", s.Est, s.Rows)
	}
	if !strings.Contains(res.Exec.String(), "range seeks:") {
		t.Fatalf("ExecStats.String missing range seeks: %s", res.Exec.String())
	}

	plan, err := ex.Explain("MATCH (u:User) WHERE u.id >= 2 RETURN count(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NodeRangeSeek(u:User.id >= 2) ~2 candidate(s)") {
		t.Fatalf("explain missing range seek bounds:\n%s", plan)
	}
}

// TestExistsSuspendsRanges pins that WHERE ranges never narrow the anchor
// of a pattern-predicate probe that reuses a variable name.
func TestExistsSuspendsRanges(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	// The outer `u` is range-constrained; the exists() probe binds its own
	// anonymous pattern over the bound u, and must not inherit bounds for
	// unrelated vars.
	res, err := ex.Run(
		"MATCH (u:User) WHERE u.id >= 1 AND exists((u)-[:POSTS]->()) RETURN u.name AS n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // alice and bob post; carol does not
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

// TestWhereEqualitySeeks pins that WHERE equality and IN seek the index
// like an inline map does — on literals and $parameters, in either operand
// order, for node and edge anchors — with the rows of a pure scan, and that
// a slot a run cannot seek on falls back to that scan.
func TestWhereEqualitySeeks(t *testing.T) {
	g := socialGraph()
	on, off := NewExecutor(g), scanExecutor(g)
	str := graph.NewString
	cases := []struct {
		q       string
		params  map[string]graph.Value
		seeks   int // IndexSeeks + EdgeSeeks with pushdown on
		scanned int // RowsScanned with pushdown on
	}{
		{"MATCH (u:User) WHERE u.name = $n RETURN u.id AS i", map[string]graph.Value{"n": str("bob")}, 1, 1},
		{"MATCH (u:User) WHERE 'alice' = u.name RETURN u.id AS i", nil, 1, 1},
		{"MATCH (u:User {name: $n}) RETURN u.id AS i", map[string]graph.Value{"n": str("carol")}, 1, 1},
		{"MATCH (u:User) WHERE u.name IN $ns RETURN u.id AS i",
			map[string]graph.Value{"ns": graph.NewList(str("carol"), str("alice"), str("zed"))}, 1, 2},
		{"MATCH (u:User) WHERE u.id IN [3, 1.0, 1] RETURN u.name AS n", nil, 1, 2},
		{"MATCH (a)-[r:FOLLOWS]->(b) WHERE r.since = $y RETURN a.name AS n",
			map[string]graph.Value{"y": graph.NewInt(2019)}, 1, 4}, // alice, then her 3 out-edges
		// Not seekable on this run: the anchor scans all three Users.
		{"MATCH (u:User) WHERE u.name = $n RETURN u.id AS i", map[string]graph.Value{"n": graph.Null}, 0, 3},
		{"MATCH (u:User) WHERE u.name = $n RETURN u.id AS i", map[string]graph.Value{"n": graph.NewList(str("bob"))}, 0, 3},
	}
	for _, tc := range cases {
		ron, err := on.Run(tc.q, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		roff, err := off.Run(tc.q, tc.params)
		if err != nil {
			t.Fatalf("%s (pushdown off): %v", tc.q, err)
		}
		if a, b := rowStrings(ron), rowStrings(roff); strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seek changed rows\non:  %v\noff: %v", tc.q, a, b)
		}
		if got := ron.Exec.IndexSeeks + ron.Exec.EdgeSeeks; got != tc.seeks || ron.Exec.RowsScanned != tc.scanned {
			t.Errorf("%s %v: seeks=%d scanned=%d, want %d/%d", tc.q, tc.params, got, ron.Exec.RowsScanned, tc.seeks, tc.scanned)
		}
		if roff.Exec.IndexSeeks+roff.Exec.EdgeSeeks != 0 {
			t.Errorf("%s: pushdown off still seeked: %+v", tc.q, roff.Exec)
		}
	}
	// A missing parameter scans, so it fails exactly as the scan does.
	res, err := on.Run("MATCH (u:User) WHERE u.name = $n RETURN u.id AS i", nil)
	if err == nil || !strings.Contains(err.Error(), "$n") || res.Exec.IndexSeeks != 0 {
		t.Fatalf("missing parameter: err=%v seeks=%d", err, res.Exec.IndexSeeks)
	}
}

// TestInSeekBucketOrder pins that an IN seek, a union of equality seeks,
// returns its candidates in label-bucket order — which a late AddNodeLabels
// makes differ from ID order — so its rows come out in scan order.
func TestInSeekBucketOrder(t *testing.T) {
	g := graph.New("order")
	late := g.AddNode(nil, graph.Props{"k": graph.NewInt(1)})
	g.AddNode([]string{"L"}, graph.Props{"k": graph.NewInt(2)})
	g.AddNode([]string{"L"}, graph.Props{"k": graph.NewInt(1)})
	if err := g.AddNodeLabels(late.ID, "L"); err != nil {
		t.Fatal(err)
	}
	const q = "MATCH (x:L) WHERE x.k IN [1, 2] RETURN id(x) AS i"
	on, err := NewExecutor(g).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := scanExecutor(g).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rowStrings(on), rowStrings(off); strings.Join(a, ",") != strings.Join(b, ",") || len(a) != 3 {
		t.Fatalf("IN seek order %v, scan order %v", a, b)
	}
	if on.Exec.IndexSeeks != 1 {
		t.Fatalf("IN did not seek: %+v", on.Exec)
	}
}

// TestPlanUsesExecutionGraph pins that a seek counts and enumerates on the
// graph the query executes on — under WithSnapshotPin a pinned snapshot —
// after the graph has diverged from an older snapshot.
func TestPlanUsesExecutionGraph(t *testing.T) {
	g := socialGraph()
	g.Snapshot() // a stale snapshot the pinned run must not reuse
	for i := 0; i < 20; i++ {
		g.AddNode([]string{"User"}, graph.Props{"name": graph.NewString("alice")})
	}
	ex := NewExecutor(g, WithSnapshotPin(true))
	q, err := Parse("MATCH (u:User {name: 'alice'}), (t:Tweet) RETURN count(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	// Executed through the pinned path, the seek's estimate and its
	// enumeration come from the same graph.
	res, err := ex.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Exec.Seeks[0]; s.Est != s.Rows || s.Rows != 21 {
		t.Fatalf("seek est/rows = %d/%d, want 21/21", s.Est, s.Rows)
	}
}

// TestNumericBoundWidening pins the int/float unification: numeric bounds
// widen to inclusive at the seek layer, and the WHERE re-check restores
// exactness, so mixed int/float comparisons stay correct.
func TestNumericBoundWidening(t *testing.T) {
	g := graph.New("nums")
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewFloat(2.5)})
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewInt(2)})
	g.AddNode([]string{"N"}, graph.Props{"x": graph.NewInt(3)})
	// Only 2.5 falls strictly between 2 and 3; the widened seek may admit
	// the endpoints but the WHERE re-check must reject them.
	on, err := NewExecutor(g).Run("MATCH (n:N) WHERE n.x > 2 AND n.x < 3 RETURN n.x AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := scanExecutor(g).Run("MATCH (n:N) WHERE n.x > 2 AND n.x < 3 RETURN n.x AS x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Rows) != 1 {
		t.Fatalf("strict numeric range returned %d rows, want 1 (just 2.5)", len(on.Rows))
	}
	if strings.Join(rowStrings(on), "\n") != strings.Join(rowStrings(off), "\n") {
		t.Fatalf("widening broke equivalence: %v vs %v", rowStrings(on), rowStrings(off))
	}
}

// TestNaNComparisons: a NaN equals and orders against nothing, so every
// comparison with one is false — on a scan, on a range or equality seek
// (a NaN bound is never seeked) and outside MATCH — while against a
// non-number it stays null. min and max order NaN above every number,
// whatever the input order.
func TestNaNComparisons(t *testing.T) {
	g := graph.New("nan")
	for _, x := range []int64{-5, 0, 3, 7} {
		g.AddNode([]string{"T"}, graph.Props{"x": graph.NewInt(x)})
	}
	params := map[string]graph.Value{"p": graph.NewFloat(math.NaN()), "l": graph.NewList(graph.NewFloat(math.NaN()), graph.NewInt(3))}
	cases := []struct{ q, want string }{
		{"MATCH (a:T) WHERE a.x >= $p RETURN count(*) AS n", "0"},
		{"MATCH (a:T) WHERE a.x < $p RETURN count(*) AS n", "0"},
		{"MATCH (a:T) WHERE $p <= a.x RETURN count(*) AS n", "0"},
		{"MATCH (a:T) WHERE a.x > -10 AND a.x <= $p RETURN count(*) AS n", "0"},
		{"MATCH (a:T) WHERE a.x = $p RETURN count(*) AS n", "0"},
		{"MATCH (a:T {x: $p}) RETURN count(*) AS n", "0"},
		{"MATCH (a:T) WHERE a.x IN $l RETURN count(*) AS n", "1"},
		{"MATCH (a:T) WHERE NOT a.x < $p RETURN count(*) AS n", "4"},
		{"RETURN 1 >= $p AS n", "false"},
		{"RETURN $p < 1.5 AS n", "false"},
		{"RETURN $p <> $p AS n", "true"},
		{"RETURN 'a' < $p AS n", "null"},
		{"UNWIND [3, $p, -1] AS v RETURN max(v) AS n", "NaN"},
		{"UNWIND [$p, 3, -1] AS v RETURN max(v) AS n", "NaN"},
		{"UNWIND [3, -1, $p] AS v RETURN min(v) AS n", "-1"},
		{"UNWIND [$p, 3, -1] AS v RETURN min(v) AS n", "-1"},
		{"UNWIND [$p, $p] AS v RETURN min(v) AS n", "NaN"},
	}
	for _, ex := range []*Executor{NewExecutor(g), scanExecutor(g)} {
		for _, c := range cases {
			res, err := ex.Run(c.q, params)
			if err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			if got := res.Value(0, "n").String(); res.Len() != 1 || got != c.want {
				t.Errorf("noSeeks=%v, %s = %s (%d rows), want %s", ex.noSeeks, c.q, got, res.Len(), c.want)
			}
		}
	}
}

// TestNaNOrderBy: ORDER BY places NaN above every number — above +Inf and
// the largest int, not among the subnormals next to 0 — ascending and
// descending.
func TestNaNOrderBy(t *testing.T) {
	ex := NewExecutor(graph.New("empty"))
	params := map[string]graph.Value{"nan": graph.NewFloat(math.NaN()), "inf": graph.NewFloat(math.Inf(1))}
	const list = "[1, $nan, 5e-324, 9223372036854775807, 0, $inf, -1]"
	for _, c := range []struct{ order, want string }{
		{"ASC", "-1 0 5e-324 1 9223372036854775807 +Inf NaN"},
		{"DESC", "NaN +Inf 9223372036854775807 1 5e-324 0 -1"},
	} {
		q := "UNWIND " + list + " AS x RETURN x ORDER BY x " + c.order
		res, err := ex.Run(q, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []string
		for i := range res.Rows {
			got = append(got, res.Value(i, "x").String())
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s = %s, want %s", q, s, c.want)
		}
	}
}
