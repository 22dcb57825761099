package cypher

import (
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// socialGraph builds a small Twitter-like fixture:
//
//	alice, bob, carol : User      (alice follows bob, bob follows carol,
//	                               carol follows carol — a self-follow)
//	t1, t2, t3        : Tweet     (alice posts t1 & t2, bob posts t3;
//	                               t3 retweets t1; t2 has no text)
//	h1                : Hashtag   (t1 tagged h1)
func socialGraph() *graph.Graph {
	g := graph.New("social")
	alice := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(1), "name": graph.NewString("alice"), "verified": graph.NewBool(true)})
	bob := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(2), "name": graph.NewString("bob"), "verified": graph.NewBool(false)})
	carol := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(3), "name": graph.NewString("carol")})
	t1 := g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(101), "text": graph.NewString("hello world"), "createdAt": graph.NewInt(1000)})
	t2 := g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(102), "createdAt": graph.NewInt(2000)})
	t3 := g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(103), "text": graph.NewString("re: hello"), "createdAt": graph.NewInt(500)})
	h1 := g.AddNode([]string{"Hashtag"}, graph.Props{"name": graph.NewString("intro")})

	g.MustAddEdge(alice.ID, bob.ID, []string{"FOLLOWS"}, graph.Props{"since": graph.NewInt(2019)})
	g.MustAddEdge(bob.ID, carol.ID, []string{"FOLLOWS"}, nil)
	g.MustAddEdge(carol.ID, carol.ID, []string{"FOLLOWS"}, nil) // violation: self-follow
	g.MustAddEdge(alice.ID, t1.ID, []string{"POSTS"}, nil)
	g.MustAddEdge(alice.ID, t2.ID, []string{"POSTS"}, nil)
	g.MustAddEdge(bob.ID, t3.ID, []string{"POSTS"}, nil)
	g.MustAddEdge(t3.ID, t1.ID, []string{"RETWEETS"}, nil) // violation: t3 older than t1
	g.MustAddEdge(t1.ID, h1.ID, []string{"TAGS"}, nil)
	return g
}

func run(t *testing.T, g *graph.Graph, src string) *Result {
	t.Helper()
	res, err := NewExecutor(g).Run(src, nil)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res
}

func runErr(t *testing.T, g *graph.Graph, src string) error {
	t.Helper()
	_, err := NewExecutor(g).Run(src, nil)
	if err == nil {
		t.Fatalf("Run(%q): expected error", src)
	}
	return err
}

func TestScanByLabel(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Errorf("users = %d", res.FirstInt("c"))
	}
	res = run(t, g, `MATCH (n) RETURN count(*) AS c`)
	if res.FirstInt("c") != 7 {
		t.Errorf("all nodes = %d", res.FirstInt("c"))
	}
	res = run(t, g, `MATCH (x:Ghost) RETURN count(*) AS c`)
	if res.FirstInt("c") != 0 {
		t.Error("unknown label should match nothing")
	}
}

func TestExpand(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User)-[:POSTS]->(t:Tweet) RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Errorf("posts = %d", res.FirstInt("c"))
	}
	// Direction flip: tweets do not post users.
	res = run(t, g, `MATCH (u:User)<-[:POSTS]-(t:Tweet) RETURN count(*) AS c`)
	if res.FirstInt("c") != 0 {
		t.Errorf("reversed posts = %d, want 0", res.FirstInt("c"))
	}
	// Undirected sees both.
	res = run(t, g, `MATCH (u:User)-[:POSTS]-(t:Tweet) RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Errorf("undirected posts = %d", res.FirstInt("c"))
	}
	// Two-hop.
	res = run(t, g, `MATCH (u:User)-[:POSTS]->(:Tweet)-[:TAGS]->(h:Hashtag) RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "alice" {
		t.Errorf("two-hop result wrong: %+v", res.Rows)
	}
}

func TestSelfLoopAndWhere(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User)-[:FOLLOWS]->(u) RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "carol" {
		t.Errorf("self-follow detection wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (a:User)-[:FOLLOWS]->(b:User) WHERE a = b RETURN count(*) AS c`)
	if res.FirstInt("c") != 1 {
		t.Error("entity equality in WHERE failed")
	}
	res = run(t, g, `MATCH (a:User)-[:FOLLOWS]->(b:User) WHERE a <> b RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("entity inequality failed")
	}
}

func TestWhereNullSemantics(t *testing.T) {
	g := socialGraph()
	// carol has no verified property: comparison yields null, row dropped.
	res := run(t, g, `MATCH (u:User) WHERE u.verified = false RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "bob" {
		t.Errorf("null-compare filter wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (u:User) WHERE u.verified IS NULL RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "carol" {
		t.Errorf("IS NULL wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (t:Tweet) WHERE t.text IS NOT NULL RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("IS NOT NULL wrong")
	}
	// NOT null is null -> dropped.
	res = run(t, g, `MATCH (u:User) WHERE NOT (u.verified = false) RETURN count(*) AS c`)
	if res.FirstInt("c") != 1 {
		t.Errorf("NOT over null = %d, want 1 (alice only)", res.FirstInt("c"))
	}
}

func TestAggregation(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User)-[:POSTS]->(t:Tweet) WITH u.name AS name, count(*) AS c RETURN name, c ORDER BY name`)
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	if res.Value(0, "name").Str() != "alice" || res.Int(0, "c") != 2 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Value(1, "name").Str() != "bob" || res.Int(1, "c") != 1 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestAggregateFunctions(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (t:Tweet) RETURN count(t.text) AS nonNull, count(*) AS total, min(t.createdAt) AS mn, max(t.createdAt) AS mx, sum(t.createdAt) AS sm, avg(t.createdAt) AS av`)
	if res.Int(0, "nonNull") != 2 || res.Int(0, "total") != 3 {
		t.Error("count variants wrong")
	}
	if res.Int(0, "mn") != 500 || res.Int(0, "mx") != 2000 || res.Int(0, "sm") != 3500 {
		t.Error("min/max/sum wrong")
	}
	if av := res.Value(0, "av"); av.Kind() != graph.KindFloat || av.Float() < 1166 || av.Float() > 1167 {
		t.Errorf("avg = %v", av)
	}
}

func TestCollectAndDistinct(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User)-[:FOLLOWS]->(v:User) RETURN collect(v.name) AS names`)
	names := res.Value(0, "names")
	if names.Kind() != graph.KindList || len(names.List()) != 3 {
		t.Fatalf("collect = %v", names)
	}
	res = run(t, g, `MATCH (u:User)-[:FOLLOWS]->(v:User) RETURN count(DISTINCT v.name) AS c`)
	if res.FirstInt("c") != 2 {
		t.Errorf("count distinct = %d", res.FirstInt("c"))
	}
	res = run(t, g, `MATCH (u:User)-[:FOLLOWS]->(v:User) RETURN DISTINCT v.name AS n ORDER BY n`)
	if res.Len() != 2 || res.Value(0, "n").Str() != "bob" {
		t.Errorf("DISTINCT rows wrong: %+v", res.Rows)
	}
}

func TestCountOverEmptyInput(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (x:Ghost) RETURN count(*) AS c`)
	if res.Len() != 1 || res.FirstInt("c") != 0 {
		t.Errorf("count over empty = %+v", res.Rows)
	}
	// With a grouping key there are no groups, hence no rows.
	res = run(t, g, `MATCH (x:Ghost) RETURN x.name AS n, count(*) AS c`)
	if res.Len() != 0 {
		t.Errorf("grouped count over empty should have no rows, got %d", res.Len())
	}
}

func TestOptionalMatch(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) OPTIONAL MATCH (u)-[:POSTS]->(t:Tweet) RETURN u.name AS n, count(t) AS c ORDER BY n`)
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	// carol posts nothing -> t null -> count(t) = 0.
	if res.Value(2, "n").Str() != "carol" || res.Int(2, "c") != 0 {
		t.Errorf("carol row = %v", res.Rows[2])
	}
	if res.Int(0, "c") != 2 {
		t.Errorf("alice count = %d", res.Int(0, "c"))
	}
}

func TestPatternPredicate(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) WHERE NOT (u)-[:POSTS]->(:Tweet) RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "carol" {
		t.Errorf("NOT pattern wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (u:User) WHERE (u)-[:FOLLOWS]->(u) RETURN u.name AS n`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "carol" {
		t.Errorf("pattern pred self-loop wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (u:User) WHERE exists((u)-[:POSTS]->()) RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("exists(pattern) wrong")
	}
}

func TestRegexMatch(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) WHERE u.name =~ '[a-c].*' RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Error("regex should match all three names")
	}
	res = run(t, g, `MATCH (u:User) WHERE u.name =~ 'ali' RETURN count(*) AS c`)
	if res.FirstInt("c") != 0 {
		t.Error("=~ must be a full match")
	}
	err := runErr(t, g, `MATCH (u:User) WHERE u.name =~ '[' RETURN count(*)`)
	if !strings.Contains(err.Error(), "regular expression") {
		t.Errorf("bad regex error = %v", err)
	}
}

func TestStringOperators(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (t:Tweet) WHERE t.text STARTS WITH 'hello' RETURN count(*) AS c`)
	if res.FirstInt("c") != 1 {
		t.Error("STARTS WITH wrong")
	}
	res = run(t, g, `MATCH (t:Tweet) WHERE t.text CONTAINS 'hello' RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("CONTAINS wrong")
	}
	res = run(t, g, `RETURN 'a' + 'b' + 1 AS s`)
	if res.Value(0, "s").Str() != "ab1" {
		t.Errorf("concat = %v", res.Value(0, "s"))
	}
}

func TestInListAndFunctions(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) WHERE u.id IN [1, 3] RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("IN list wrong")
	}
	res = run(t, g, `RETURN size([1,2,3]) AS s, size('abcd') AS t, head([7,8]) AS h, last([7,8]) AS l`)
	if res.Int(0, "s") != 3 || res.Int(0, "t") != 4 || res.Int(0, "h") != 7 || res.Int(0, "l") != 8 {
		t.Error("size/head/last wrong")
	}
	res = run(t, g, `RETURN toString(42) AS a, toInteger('17') AS b, coalesce(null, 5) AS c, abs(-3) AS d`)
	if res.Value(0, "a").Str() != "42" || res.Int(0, "b") != 17 || res.Int(0, "c") != 5 || res.Int(0, "d") != 3 {
		t.Error("conversions wrong")
	}
	res = run(t, g, `MATCH (u:User {id: 1}) RETURN labels(u) AS ls, id(u) AS i`)
	if ls := res.Value(0, "ls"); ls.Kind() != graph.KindList || ls.List()[0].Str() != "User" {
		t.Error("labels() wrong")
	}
	res = run(t, g, `MATCH (:User {id:1})-[r:FOLLOWS]->() RETURN type(r) AS t, r.since AS s`)
	if res.Value(0, "t").Str() != "FOLLOWS" || res.Int(0, "s") != 2019 {
		t.Error("type()/edge prop wrong")
	}
}

func TestArithmetic(t *testing.T) {
	g := graph.New("a")
	res := run(t, g, `RETURN 7 / 2 AS idiv, 7.0 / 2 AS fdiv, 7 % 3 AS m, -(3) AS neg, 2 * 3 + 1 AS x`)
	if res.Int(0, "idiv") != 3 || res.Value(0, "fdiv").Float() != 3.5 || res.Int(0, "m") != 1 || res.Int(0, "neg") != -3 || res.Int(0, "x") != 7 {
		t.Errorf("arithmetic wrong: %+v", res.Rows)
	}
	err := runErr(t, g, `RETURN 1 / 0`)
	if !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("div by zero error = %v", err)
	}
}

func TestOrderBySkipLimit(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) RETURN u.id AS id ORDER BY id DESC`)
	if res.Int(0, "id") != 3 || res.Int(2, "id") != 1 {
		t.Errorf("order desc wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (u:User) RETURN u.id AS id ORDER BY id SKIP 1 LIMIT 1`)
	if res.Len() != 1 || res.Int(0, "id") != 2 {
		t.Errorf("skip/limit wrong: %+v", res.Rows)
	}
}

func TestUnwind(t *testing.T) {
	g := graph.New("u")
	res := run(t, g, `UNWIND [1, 2, 3] AS x RETURN sum(x) AS s`)
	if res.FirstInt("s") != 6 {
		t.Error("unwind sum wrong")
	}
	res = run(t, g, `UNWIND [] AS x RETURN count(*) AS c`)
	if res.FirstInt("c") != 0 {
		t.Error("unwind empty wrong")
	}
	res = run(t, g, `UNWIND range(1, 4) AS x RETURN count(*) AS c`)
	if res.FirstInt("c") != 4 {
		t.Error("unwind range wrong")
	}
}

func TestCreateSetDelete(t *testing.T) {
	g := graph.New("m")
	ex := NewExecutor(g)
	res, err := ex.Run(`CREATE (a:User {id: 1})-[:KNOWS {w: 2}]->(b:User {id: 2})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesCreated != 2 || res.Stats.EdgesCreated != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatal("graph not mutated")
	}
	res, err = ex.Run(`MATCH (a:User {id: 1}) SET a.name = 'alice', a:Person`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PropertiesSet != 1 || res.Stats.LabelsAdded != 1 {
		t.Errorf("set stats = %+v", res.Stats)
	}
	r2, _ := ex.Run(`MATCH (a:Person) RETURN a.name AS n`, nil)
	if r2.Len() != 1 || r2.Value(0, "n").Str() != "alice" {
		t.Error("SET did not apply")
	}
	// DELETE with relationships requires DETACH.
	if _, err := ex.Run(`MATCH (a:User {id: 1}) DELETE a`, nil); err == nil {
		t.Error("DELETE with rels should fail")
	}
	res, err = ex.Run(`MATCH (a:User {id: 1}) DETACH DELETE a`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesDeleted != 1 || res.Stats.EdgesDeleted != 1 {
		t.Errorf("delete stats = %+v", res.Stats)
	}
	if g.NodeCount() != 1 {
		t.Error("node not deleted")
	}
}

func TestCreateFromMatch(t *testing.T) {
	g := socialGraph()
	ex := NewExecutor(g)
	before := g.EdgeCount()
	_, err := ex.Run(`MATCH (a:User {id: 1}), (b:User {id: 3}) CREATE (a)-[:FOLLOWS]->(b)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != before+1 {
		t.Error("edge not created")
	}
}

func TestMultipleMatchJoin(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (a:User {name: 'alice'}) MATCH (a)-[:POSTS]->(t) RETURN count(*) AS c`)
	if res.FirstInt("c") != 2 {
		t.Error("join via bound var wrong")
	}
	// Cartesian product when disconnected.
	res = run(t, g, `MATCH (a:User) MATCH (h:Hashtag) RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Error("cartesian wrong")
	}
}

func TestRelationshipUniqueness(t *testing.T) {
	g := graph.New("ru")
	a := g.AddNode([]string{"N"}, nil)
	b := g.AddNode([]string{"N"}, nil)
	g.MustAddEdge(a.ID, b.ID, []string{"R"}, nil)
	// A single edge cannot serve both hops of a two-hop pattern.
	res := run(t, g, `MATCH (x)-[:R]-(y)-[:R]-(z) RETURN count(*) AS c`)
	if res.FirstInt("c") != 0 {
		t.Errorf("relationship uniqueness violated: %d", res.FirstInt("c"))
	}
	// Two distinct edges are fine.
	c := g.AddNode([]string{"N"}, nil)
	g.MustAddEdge(b.ID, c.ID, []string{"R"}, nil)
	res = run(t, g, `MATCH (x)-[:R]->(y)-[:R]->(z) RETURN count(*) AS c`)
	if res.FirstInt("c") != 1 {
		t.Errorf("two-hop = %d", res.FirstInt("c"))
	}
}

func TestVarLengthPaths(t *testing.T) {
	g := graph.New("vl")
	n := make([]*graph.Node, 4)
	for i := range n {
		n[i] = g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
	}
	for i := 0; i < 3; i++ {
		g.MustAddEdge(n[i].ID, n[i+1].ID, []string{"R"}, nil)
	}
	res := run(t, g, `MATCH (a:N {i: 0})-[:R*1..3]->(b) RETURN count(*) AS c`)
	if res.FirstInt("c") != 3 {
		t.Errorf("1..3 reach = %d, want 3", res.FirstInt("c"))
	}
	res = run(t, g, `MATCH (a:N {i: 0})-[:R*2]->(b) RETURN b.i AS i`)
	if res.Len() != 1 || res.Int(0, "i") != 2 {
		t.Errorf("*2 wrong: %+v", res.Rows)
	}
	res = run(t, g, `MATCH (a:N {i: 0})-[r:R*]->(b:N {i: 3}) RETURN size(r) AS hops`)
	if res.Len() != 1 || res.Int(0, "hops") != 3 {
		t.Errorf("path var wrong: %+v", res.Rows)
	}
}

func TestParameters(t *testing.T) {
	g := socialGraph()
	res, err := NewExecutor(g).Run(`MATCH (u:User) WHERE u.id = $id RETURN u.name AS n`,
		map[string]graph.Value{"id": graph.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Value(0, "n").Str() != "bob" {
		t.Errorf("param query wrong: %+v", res.Rows)
	}
	if _, err := NewExecutor(g).Run(`RETURN $missing`, map[string]graph.Value{}); err == nil {
		t.Error("missing param should fail")
	}
}

func TestCaseExpression(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User) RETURN u.name AS n, CASE WHEN u.verified THEN 'v' ELSE 'u' END AS f ORDER BY n`)
	if res.Value(0, "f").Str() != "v" || res.Value(1, "f").Str() != "u" {
		t.Errorf("case wrong: %+v", res.Rows)
	}
	// carol: u.verified null -> not true -> ELSE branch.
	if res.Value(2, "f").Str() != "u" {
		t.Error("case with null operand wrong")
	}
}

func TestRuntimeErrors(t *testing.T) {
	g := socialGraph()
	for _, src := range []string{
		`MATCH (n) RETURN boom(n)`,
		`MATCH (n) RETURN undefined_var`,
		`MATCH (n) WHERE n.id RETURN n`,                            // non-boolean WHERE
		`MATCH (n) RETURN count(*) + max(n.id) MATCH (m) RETURN m`, // RETURN not last
		`RETURN sum('x')`,
	} {
		if _, err := NewExecutor(g).Run(src, nil); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestUniquenessQueryShape(t *testing.T) {
	// The canonical generated uniqueness-violation query shape.
	g := graph.New("uq")
	g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(1)})
	g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(1)}) // dup
	g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(2)})
	res := run(t, g, `MATCH (t:Tweet) WITH t.id AS id, count(*) AS c WHERE c > 1 RETURN count(*) AS violations`)
	if res.FirstInt("violations") != 1 {
		t.Errorf("violations = %d", res.FirstInt("violations"))
	}
	res = run(t, g, `MATCH (t:Tweet) WITH t.id AS id, count(*) AS c WHERE c = 1 RETURN count(*) AS ok`)
	if res.FirstInt("ok") != 1 {
		t.Errorf("ok groups = %d", res.FirstInt("ok"))
	}
}

func TestEndpointLabelQueryShape(t *testing.T) {
	g := socialGraph()
	// Every POSTS edge must end at a Tweet.
	res := run(t, g, `MATCH (a)-[:POSTS]->(b) WHERE NOT b:Tweet RETURN count(*) AS bad`)
	if res.FirstInt("bad") != 0 {
		t.Error("endpoint check wrong")
	}
	res = run(t, g, `MATCH (a)-[:POSTS]->(b) WHERE b:Tweet RETURN count(*) AS good`)
	if res.FirstInt("good") != 3 {
		t.Error("endpoint positive check wrong")
	}
}

func TestTemporalQueryShape(t *testing.T) {
	g := socialGraph()
	// Retweet must be newer than the original: t3(500) retweets t1(1000) -> violation.
	res := run(t, g, `MATCH (r:Tweet)-[:RETWEETS]->(o:Tweet) WHERE r.createdAt < o.createdAt RETURN count(*) AS bad`)
	if res.FirstInt("bad") != 1 {
		t.Errorf("temporal violations = %d", res.FirstInt("bad"))
	}
}

func TestResultHelpers(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User {id: 1}) RETURN u, u.name AS name`)
	if res.Column("name") != 1 || res.Column("nope") != -1 {
		t.Error("Column lookup wrong")
	}
	if res.Value(5, "name").Kind() != graph.KindNull {
		t.Error("out-of-range Value should be null")
	}
	if !strings.Contains(res.Rows[0][0].Display(), "User") {
		t.Error("node Display wrong")
	}
	empty := &Result{}
	if empty.FirstInt("x") != 0 || empty.FirstInt("") != 0 {
		t.Error("FirstInt on empty result")
	}
}

func TestWithStar(t *testing.T) {
	g := socialGraph()
	res := run(t, g, `MATCH (u:User {id: 1}) WITH *, u.name AS n RETURN n, u.id AS id`)
	if res.Len() != 1 || res.Value(0, "n").Str() != "alice" || res.Int(0, "id") != 1 {
		t.Errorf("WITH * wrong: %+v", res.Rows)
	}
}

func TestDatumHashableDistinct(t *testing.T) {
	g := socialGraph()
	key := func(d Datum) string { return string(d.appendHashable(nil)) }
	n1 := g.Node(0)
	if key(NodeDatum(n1)) == key(ValDatum(graph.NewInt(0))) {
		t.Error("node 0 must not collide with int 0")
	}
	if key(NodeDatum(n1)) == key(EdgeDatum(g.Edge(0))) {
		t.Error("node 0 must not collide with edge 0")
	}
}
