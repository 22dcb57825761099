package cypher

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// displayRows renders a result as "a, b; c, d": columns joined by ", ",
// rows by "; ".
func displayRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cols := make([]string, len(r))
		for j, d := range r {
			cols[j] = d.Display()
		}
		rows[i] = strings.Join(cols, ", ")
	}
	return strings.Join(rows, "; ")
}

// TestSlotScopes pins what a variable's slot holds across the clauses
// that bind, rebind, shadow and drop it, with seeks on and off.
func TestSlotScopes(t *testing.T) {
	cases := []struct{ name, q, want string }{
		{"rebound across WITH",
			"MATCH (x:Tweet) WITH x.id AS v MATCH (x:User) RETURN v, x.name AS n ORDER BY v, n",
			"101, alice; 101, bob; 101, carol; 102, alice; 102, bob; 102, carol; 103, alice; 103, bob; 103, carol"},
		{"WITH rebinds a name to a scalar",
			"MATCH (x:Tweet) WITH x.id AS x MATCH (u:User {id: x - 100}) RETURN x, u.name ORDER BY x",
			"101, alice; 102, bob; 103, carol"},
		{"OPTIONAL MATCH pads what it binds",
			"MATCH (u:User) OPTIONAL MATCH (u)-[:POSTS]->(t:Tweet) RETURN u.name AS n, t.id AS id ORDER BY n, id",
			"alice, 101; alice, 102; bob, 103; carol, null"},
		{"OPTIONAL MATCH keeps an already-bound variable",
			"MATCH (u:User), (t:Tweet {id: 103}) OPTIONAL MATCH (u)-[r:POSTS]->(t) RETURN u.name AS n, t.id, r IS NULL ORDER BY n",
			"alice, 103, true; bob, 103, false; carol, 103, true"},
		{"OPTIONAL MATCH pads after rejected candidates",
			"MATCH (a:User {id: 1}) OPTIONAL MATCH (a)-[f:FOLLOWS]->(b) WHERE b.id > 10 RETURN a.name, f, b",
			"alice, null, null"},
		{"UNWIND restores the variable its alias shadows",
			"MATCH (u:User), (t:Tweet) UNWIND [u.name] AS u RETURN u, t.id AS id ORDER BY u, id",
			"alice, 101; alice, 102; alice, 103; bob, 101; bob, 102; bob, 103; carol, 101; carol, 102; carol, 103"},
		{"UNWIND over UNWIND of one alias",
			"UNWIND [1, 2] AS x UNWIND [x * 10, x * 10 + 1] AS x RETURN x",
			"10; 11; 20; 21"},
		{"a path variable shadows an outer binding and restores it",
			"MATCH (a:User {id: 1}) WITH a, 7 AS r OPTIONAL MATCH (a)-[r:FOLLOWS*1..2]->(b) WHERE b.id > 10 RETURN r, b",
			"7, null"},
		{"a path variable binds its edge ids",
			"MATCH (a:User {id: 1}) WITH a, 7 AS r MATCH (a)-[r:FOLLOWS*1..2]->(b) RETURN size(r) AS h, b.name ORDER BY h",
			"1, bob; 2, carol"},
		{"pattern-predicate locals do not leak into RETURN *",
			"MATCH (u:User) WHERE (u)-[:POSTS]->(t) RETURN * ORDER BY u.name",
			"(User {id:0}); (User {id:1})"},
		{"pattern-predicate locals do not bind a later MATCH",
			"MATCH (u:User) WHERE (u)-[:POSTS]->(t) MATCH (t:Tweet) RETURN count(*)",
			"6"},
		{"RETURN * after WITH",
			"MATCH (u:User)-[:POSTS]->(t) WITH u.name AS name, t.id AS id RETURN * ORDER BY name, id",
			"101, alice; 102, alice; 103, bob"},
		{"WITH * then RETURN *",
			"MATCH (u:User {id: 2})-[:POSTS]->(t) WITH *, t.id AS id RETURN *",
			"103, (Tweet {id:5}), (User {id:1})"},
		{"ORDER BY sees only the columns",
			"MATCH (u:User) RETURN u.name AS u ORDER BY u DESC",
			"carol; bob; alice"},
		{"SKIP evaluates on a row binding nothing",
			"MATCH (u:User) RETURN u.name AS n ORDER BY n SKIP CASE WHEN (x)-->() THEN 1 ELSE 0 END",
			"bob; carol"},
		{"an aggregate over no rows evaluates on a row binding nothing",
			"MATCH (a:Nope) RETURN CASE WHEN (a)-->() THEN count(*) ELSE -1 END AS c",
			"0"},
	}
	for _, noSeeks := range []bool{false, true} {
		ex := NewExecutor(socialGraph())
		ex.noSeeks = noSeeks
		for _, c := range cases {
			res, err := ex.Run(c.q, nil)
			if err != nil {
				t.Errorf("%s: %s: %v", c.name, c.q, err)
				continue
			}
			if got := displayRows(res); got != c.want {
				t.Errorf("%s (noSeeks=%v):\n%s\n got %s\nwant %s", c.name, noSeeks, c.q, got, c.want)
			}
		}
	}
}

// TestSlotStarColumns: RETURN * after WITH lists WITH's columns, sorted.
func TestSlotStarColumns(t *testing.T) {
	res := run(t, socialGraph(), "MATCH (u:User)-[:POSTS]->(t) WITH u.name AS name, t.id AS id RETURN *")
	if got := strings.Join(res.Columns, ","); got != "id,name" {
		t.Fatalf("columns %s, want id,name", got)
	}
}

// TestSlotSet: SET writes through a slot bound clauses earlier, and later
// clauses read the written entity.
func TestSlotSet(t *testing.T) {
	for q, want := range map[string]string{
		"MATCH (u:User {id: 2}) MATCH (t:Tweet {id: 101}) SET u.seen = t.id RETURN u.seen, t.id":  "101, 101",
		"MATCH (u:User {id: 2}) WITH u MATCH (t:Tweet {id: 101}) SET u.seen = true RETURN u.seen": "true",
		"MATCH (u:User {id: 2}) WITH u AS v SET v:Seen WITH v MATCH (w:Seen) RETURN w.name":       "bob",
	} {
		if got := displayRows(run(t, socialGraph(), q)); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

// TestSlotNotDefined: a name nothing binds in scope — never bound, bound
// only before a WITH that drops it, or local to a pattern predicate — is
// the usual runtime error, in RETURN and in SET.
func TestSlotNotDefined(t *testing.T) {
	for q, name := range map[string]string{
		"MATCH (u:User) RETURN nope":                                 "nope",
		"MATCH (x:Tweet) WITH x.id AS v RETURN x":                    "x",
		"MATCH (u:User) WHERE (u)-[:POSTS]->(t) RETURN t":            "t",
		"MATCH (u:User) WITH u.name AS n RETURN n ORDER BY n SKIP k": "k",
	} {
		err := runErr(t, socialGraph(), q)
		if want := fmt.Sprintf("variable `%s` not defined", name); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want %q", q, err, want)
		}
	}
	err := runErr(t, socialGraph(), "MATCH (x:Tweet) WITH x.id AS v SET x.seen = 1")
	if want := "SET: variable `x` not defined"; !strings.Contains(err.Error(), want) {
		t.Errorf("SET error %q, want %q", err, want)
	}
}

// TestSlotProgrammaticQuery: a *Query built without the parser is resolved
// at its first Execute, and runs the same every time.
func TestSlotProgrammaticQuery(t *testing.T) {
	u := func() *Variable { return &Variable{Name: "u"} }
	q := &Query{Clauses: []Clause{
		&MatchClause{Patterns: []*PatternPart{{
			Nodes: []*NodePattern{{Var: "u", Labels: []string{"User"}}, {Var: "t", Props: map[string]Expr{"id": &Literal{Value: graph.NewInt(103)}}}},
			Rels:  []*RelPattern{{Types: []string{"POSTS"}, Direction: DirOut, MinHops: 1, MaxHops: 1}},
		}}},
		&WithClause{Projection: Projection{Items: []*ReturnItem{{Expr: u()}}}},
		&ReturnClause{Projection: Projection{Star: true, Items: []*ReturnItem{{Expr: &PropAccess{Target: u(), Key: "name"}, Alias: "n"}}}},
	}}
	ex := NewExecutor(socialGraph())
	for i := 0; i < 2; i++ {
		res, err := ex.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.Columns, ",") + ": " + displayRows(res); got != "u,n: (User {id:1}), bob" {
			t.Fatalf("run %d: %s", i, got)
		}
	}
}

// TestSharedPlanConcurrent: one cached plan, first run from 8 goroutines
// at once, so they race to resolve its slots; every run returns the rows
// of a serial run of a separate parse.
func TestSharedPlanConcurrent(t *testing.T) {
	const text = "MATCH (u:User)-[:POSTS]->(t:Tweet) WITH u, count(t) AS c UNWIND range(1, c) AS i " +
		"OPTIONAL MATCH (u)-[f:FOLLOWS]->(v) WHERE (v)-[:FOLLOWS]->() " +
		"RETURN u.name AS n, c, i, v.name AS w, f IS NULL AS none ORDER BY n, i"
	g := socialGraph()
	want := displayRows(run(t, g, text))
	ex := NewExecutor(g)
	if _, _, err := ex.plan(text); err != nil { // cache the parse without running it
		t.Fatal(err)
	}
	start := make(chan struct{})
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := ex.Run(text, nil)
			if err != nil {
				got[i] = err.Error()
				return
			}
			got[i] = displayRows(res)
		}()
	}
	close(start)
	wg.Wait()
	for i, rows := range got {
		if rows != want {
			t.Errorf("goroutine %d: %s, want %s", i, rows, want)
		}
	}
	if st := ex.PlanCacheStats(); st.Misses != 1 {
		t.Errorf("%d plan cache misses, want 1 (one shared plan)", st.Misses)
	}
}

// TestSlotScanAllocs: a label scan, bare or filtered, allocates per query,
// not per candidate: ten times the nodes cost no more allocations.
func TestSlotScanAllocs(t *testing.T) {
	allocs := func(n int, q string) float64 {
		g := graph.New("allocs")
		for i := 0; i < n; i++ {
			g.AddNode([]string{"T"}, graph.Props{"k": graph.NewInt(int64(i))})
		}
		ex := NewExecutor(g)
		return testing.AllocsPerRun(20, func() {
			if res, err := ex.Run(q, nil); err != nil || res.FirstInt("n") != int64(n) {
				t.Fatalf("%s: %v", q, err)
			}
		})
	}
	for _, q := range []string{
		"MATCH (x:T) RETURN count(*) AS n",
		"MATCH (x:T) WHERE x.k IS NOT NULL RETURN count(*) AS n",
	} {
		small, large := allocs(1000, q), allocs(10000, q)
		if large > small {
			t.Errorf("%s: %v allocations at 1,000 nodes, %v at 10,000", q, small, large)
		}
	}
}
