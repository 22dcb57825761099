package cypher_test

// FuzzLint lives in the external test package: the lint framework imports
// internal/cypher, so the fuzzer for it cannot sit in package cypher itself.

import (
	"strings"
	"testing"

	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/graph"
	"github.com/graphrules/graphrules/internal/lint"
)

// lintFuzzGraph builds a tiny schema-conforming social graph: every label,
// relationship type and property key the seeds mention is observed, so
// lint-clean queries have nothing left to trip over at bind time.
func lintFuzzGraph() *graph.Graph {
	g := graph.New("lintfuzz")
	u1 := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(1), "name": graph.NewString("ann"), "followers": graph.NewInt(10)})
	u2 := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(2), "name": graph.NewString("bob"), "followers": graph.NewInt(3)})
	t1 := g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(3), "text": graph.NewString("hello world")})
	t2 := g.AddNode([]string{"Tweet"}, graph.Props{"id": graph.NewInt(4), "text": graph.NewString("bye")})
	g.MustAddEdge(u1.ID, u2.ID, []string{"FOLLOWS"}, nil)
	g.MustAddEdge(u1.ID, t1.ID, []string{"POSTS"}, nil)
	g.MustAddEdge(u2.ID, t2.ID, []string{"POSTS"}, nil)
	return g
}

// FuzzLint asserts two invariants of the analyzer framework:
//
//  1. lint.Source never panics, whatever the input — unparseable input must
//     yield exactly one syntax diagnostic, parseable input any number.
//  2. Soundness of the error severity: a lint-clean query (no error-severity
//     findings against the graph's schema) executes without the engine's
//     semantic binding failures ("variable ... not defined", "unknown
//     function"). Warnings and infos carry no such guarantee.
func FuzzLint(f *testing.F) {
	seeds := []string{
		`MATCH (u:User)-[:POSTS]->(t:Tweet) WHERE u.followers > 1 RETURN u.name, t.id`,
		`MATCH (u:User) WITH u.name AS n, count(*) AS c WHERE c > 1 RETURN n ORDER BY n LIMIT 2`,
		`MATCH (a:User)-[r:FOLLOWS]->(b:User) RETURN count(r) AS follows`,
		`MATCH (u:Usr) WHERE u.folowers > 1 RETURN u`,
		`MATCH (t:Tweet)-[:POSTS]->(u:User) RETURN u`,
		`MATCH (u:User) WHERE u.name = '^a.*$' RETURN u`,
		`MATCH (u:User) WHERE cout(u) > 1 RETURN u`,
		`MATCH (a:User), (b:Tweet) RETURN a, b`,
		`UNWIND [1, 2] AS x RETURN sum(x) + x`,
		`MATCH (u:User) RETURN v`,
		`MATCH (u:User RETURN u`,
		`RETURN count(count(1))`,
		`MATCH (n) SET n.name = 'x' DELETE n`,
		`MATCH (u:User) WHERE u.id = 1 AND u.id = 2 RETURN u`,
		// The two shapes that used to overflow the stack, just past the
		// parser's nesting bound: the linter must report them as syntax.
		"RETURN " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000),
		"RETURN 1" + strings.Repeat("+1", 2000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	g := lintFuzzGraph()
	schema := graph.ExtractSchema(g)
	f.Fuzz(func(t *testing.T, src string) {
		diags := lint.Source(src, schema, lint.Options{}) // must never panic
		q, err := cypher.Parse(src)
		if err != nil {
			if len(diags) != 1 || diags[0].Analyzer != lint.SyntaxAnalyzer {
				t.Fatalf("unparseable input wants exactly one syntax diagnostic, got %v", diags)
			}
			return
		}
		if lint.HasError(diags) || len(src) > 500 { // keep per-case execution bounded
			return
		}
		if _, err := cypher.NewExecutor(g).Execute(q, nil); err != nil {
			msg := err.Error()
			if strings.Contains(msg, "not defined") || strings.Contains(msg, "unknown function") {
				t.Fatalf("lint-clean query hit a semantic binding error at runtime:\nquery: %q\nerror: %v\ndiags: %v", src, err, diags)
			}
		}
	})
}
