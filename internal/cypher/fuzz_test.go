package cypher

import (
	"testing"

	"github.com/graphrules/graphrules/internal/graph"
)

// FuzzParse checks that the parser never panics and that whatever parses
// also round-trips through its String rendering. Run the seed corpus with
// plain `go test`; extend with `go test -fuzz=FuzzParse ./internal/cypher`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		`MATCH (n) RETURN n`,
		`MATCH (a:User)-[r:POSTS]->(b:Tweet) WHERE a.id > 1 RETURN count(*) AS n`,
		`MATCH (a)-[*1..3]->(b) RETURN b`,
		`OPTIONAL MATCH (a {k: 'v'}) WHERE a.x IS NULL RETURN DISTINCT a.x ORDER BY a.x DESC SKIP 1 LIMIT 2`,
		`UNWIND [1, 2.5, 'x', null, [true]] AS v RETURN collect(DISTINCT v)`,
		`CREATE (a:X {n: 1})-[:R {w: 2}]->(b)`,
		`MATCH (n) SET n.a = n.b + 1, n:Lbl DETACH DELETE n`,
		`MATCH (n) WHERE NOT (n)-[:R]->(:X) AND n.s =~ '^a.*$' OR n.k IN [1,2] RETURN CASE WHEN n.x THEN 1 ELSE 2 END`,
		"MATCH (n:`weird label`) RETURN n.`odd key`",
		`RETURN $p + -1 % 2 * 3 / 4`,
		`MATCH (n) RETURN size(n.list[0]) // comment`,
		`/* block */ RETURN 1;`,
		`MATCH (a)<-[:R|:S]-(b) RETURN exists((a)-[:T]->(b))`,
		`)(((`,
		`MATCH`,
		`RETURN '\x'`,
		`RETURN 'unterminated`,
		// The two shapes that used to overflow the stack (in production at
		// 5M parentheses / 1M terms; a seed only needs to cross the bound).
		"RETURN " + nest("(", "1", ")", 2*maxExprDepth),
		"RETURN " + chain("1", "+1", 2*maxExprDepth),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("String() of a parsed query failed to re-parse:\nsrc: %q\nout: %q\nerr: %v", src, text, err)
		}
		if q2.String() != text {
			t.Fatalf("String() not a fixed point:\n1: %q\n2: %q", text, q2.String())
		}
	})
}

// FuzzExecute checks the executor never panics on parseable input against
// a small graph: errors are acceptable, crashes are not.
func FuzzExecute(f *testing.F) {
	seeds := []string{
		`MATCH (u:User) RETURN count(*)`,
		`MATCH (u:User)-[:FOLLOWS]->(v) RETURN v.name ORDER BY v.name LIMIT 2`,
		`MATCH (t:Tweet) WITH t.id AS id, count(*) AS c WHERE c > 1 RETURN count(*)`,
		`UNWIND range(1, 3) AS x RETURN sum(x)`,
		`MATCH (n) WHERE n.text CONTAINS 'hello' RETURN n`,
		`RETURN 1/0`,
		`MATCH (a)-[*]->(b) RETURN count(*)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	g := socialGraph()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 500 {
			return // keep per-case work bounded
		}
		q, err := Parse(src)
		if err != nil {
			return
		}
		// Execute against a copy-free read path; mutations are fine since
		// each failure case is independent of graph size invariants.
		_, _ = NewExecutor(g).Execute(q, map[string]graph.Value{"p": graph.NewInt(1)})
	})
}
