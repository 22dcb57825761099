package cypher

import (
	"errors"
	"strings"
	"testing"
)

// nest wraps seed in n copies of open…close.
func nest(open, seed, close string, n int) string {
	return strings.Repeat(open, n) + seed + strings.Repeat(close, n)
}

// chain is first followed by n copies of link.
func chain(first, link string, n int) string { return first + strings.Repeat(link, n) }

// depthForms is every way query text can deepen an expression: build(n)
// nests or chains n levels. The first group recurses in the parser, the
// second only grows the tree (left-associative chains), and the last shape
// stacks short chains over nested parentheses so that no single chain and
// no single nesting is long, but the tree is.
var depthForms = []struct {
	name  string
	build func(n int) string
}{
	{"parens", func(n int) string { return "RETURN " + nest("(", "1", ")", n) }},
	{"list literal", func(n int) string { return "RETURN " + nest("[", "1", "]", n) }},
	{"pattern map literal", func(n int) string {
		return "RETURN " + nest("(a {k: ", "1", "})-[:R]->(b)", n)
	}},
	{"case", func(n int) string { return "RETURN " + nest("CASE WHEN true THEN ", "1", " END", n) }},
	{"function arguments", func(n int) string { return "RETURN " + nest("abs(", "1", ")", n) }},
	{"index subscript", func(n int) string { return "RETURN " + nest("x[", "0", "]", n) }},
	{"unary minus", func(n int) string { return "RETURN " + strings.Repeat("- ", n) + "1" }},
	{"unary plus", func(n int) string { return "RETURN " + strings.Repeat("+ ", n) + "1" }},
	{"not", func(n int) string { return "RETURN " + strings.Repeat("NOT ", n) + "true" }},

	{"additive chain", func(n int) string { return "RETURN " + chain("1", "+1", n) }},
	{"multiplicative chain", func(n int) string { return "RETURN " + chain("1", "*1", n) }},
	{"and chain", func(n int) string { return "RETURN " + chain("true", " AND true", n) }},
	{"or chain", func(n int) string { return "RETURN " + chain("true", " OR true", n) }},
	{"xor chain", func(n int) string { return "RETURN " + chain("true", " XOR true", n) }},
	{"comparison chain", func(n int) string { return "RETURN " + chain("1", " = 1", n) }},
	{"is-null chain", func(n int) string { return "RETURN " + chain("x", " IS NULL", n) }},
	{"property chain", func(n int) string { return "RETURN " + chain("x", ".k", n) }},
	{"subscript chain", func(n int) string { return "RETURN " + chain("x", "[0]", n) }},

	{"chains over parens", func(n int) string {
		// About sqrt(2n) levels of "(" … ")+1+1…": the tree is ~n tall.
		levels := 1
		for levels*levels < 2*n {
			levels++
		}
		src := "1"
		for i := 0; i < levels; i++ {
			src = "(" + src + ")" + strings.Repeat("+1", levels)
		}
		return "RETURN " + src
	}},
}

// TestExprDepthLimit: every nesting form parses well under the bound and is
// rejected with the typed SyntaxError (never a crash) beyond it.
func TestExprDepthLimit(t *testing.T) {
	for _, f := range depthForms {
		t.Run(f.name, func(t *testing.T) {
			if _, err := Parse(f.build(maxExprDepth / 4)); err != nil {
				t.Fatalf("depth %d rejected: %v", maxExprDepth/4, err)
			}
			for _, n := range []int{maxExprDepth + 1, 20 * maxExprDepth} {
				_, err := Parse(f.build(n))
				var se *SyntaxError
				if !errors.As(err, &se) {
					t.Fatalf("depth %d: err = %v, want *SyntaxError", n, err)
				}
				if !strings.Contains(se.Msg, "nests deeper") || se.Pos <= 0 {
					t.Errorf("depth %d: error %q at offset %d, want the nesting error at the offending offset", n, se.Msg, se.Pos)
				}
			}
		})
	}
}

// exprHeight measures an expression tree the slow way.
func exprHeight(e Expr) int {
	h := 0
	child := func(c Expr) {
		if c != nil {
			h = max(h, exprHeight(c))
		}
	}
	switch x := e.(type) {
	case *Binary:
		child(x.L)
		child(x.R)
	case *Not:
		child(x.E)
	case *Neg:
		child(x.E)
	case *IsNull:
		child(x.E)
	case *HasLabels:
		child(x.E)
	case *PropAccess:
		child(x.Target)
	case *Index:
		child(x.Target)
		child(x.Sub)
	case *FuncCall:
		for _, a := range x.Args {
			child(a)
		}
	case *ListLit:
		for _, el := range x.Elems {
			child(el)
		}
	case *CaseExpr:
		child(x.Operand)
		for i := range x.Whens {
			child(x.Whens[i])
			child(x.Thens[i])
		}
		child(x.Else)
	case *PatternPred:
		for _, n := range x.Pattern.Nodes {
			for _, pe := range n.Props {
				child(pe)
			}
		}
		for _, r := range x.Pattern.Rels {
			for _, pe := range r.Props {
				child(pe)
			}
		}
	}
	return h + 1
}

// TestParserHeightIsExact: the height the parser tracks while building an
// expression is the tree's real height — the bound is neither loose (legal
// queries rejected) nor unsound (a taller tree slipping through).
func TestParserHeightIsExact(t *testing.T) {
	exprs := []string{
		`1`, `x`, `$p`, `x.a.b`, `x[0][1]`, `x[y.a + 1]`, `n:A:B`, `-x`, `+x`, `- - x`, `NOT NOT x`,
		`(((1)))`, `1 + 2 * 3`, `(1 + 2) * 3`, `1 + 2 + 3 + 4`, `a AND b OR c XOR NOT d`,
		`x IS NULL`, `x.a IS NOT NULL`, `1 < 2 = true`, `x IN [1, [2, [3]]]`, `s STARTS WITH 'a' + 'b'`,
		`[]`, `[1, 2 + 3, [4]]`, `count(*)`, `rand()`, `abs(-x.a)`, `coalesce(x, [1, 2 * 3], 4)`,
		`count(DISTINCT x.a + 1)`, `CASE x WHEN 1 THEN [2] ELSE 3 + 4 * 5 END`, `CASE WHEN a AND b THEN 1 END`,
		`exists(x.a)`, `exists((a)-[:R]->(b))`, `EXISTS { (a {k: 1 + 2})-[:R {w: [3]}]->(b) }`,
		`(a {k: x.y.z})-[:R]->(b {j: 1}) AND true`, `NOT (a)-[:R]->(:X {k: [1, [2]]})`,
		`((1)+1+1)+1+1`, `(1 + (2 + (3 + 4))) * 5 - x[0].k`,
	}
	for _, src := range exprs {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		p := &parser{toks: toks}
		e, err := p.parseExpr()
		if err != nil || p.peek().Type != TokEOF {
			t.Fatalf("parseExpr(%q): err=%v, stopped at %s", src, err, p.peek())
		}
		if want := exprHeight(e); p.height != want {
			t.Errorf("%q: parser tracked height %d, tree is %d tall", src, p.height, want)
		}
		if p.depth != 0 {
			t.Errorf("%q: parser left depth %d after returning", src, p.depth)
		}
	}
}

// TestHugeNestingIsASyntaxError replays the two inputs that used to take the
// process down: 5M nested parentheses overflowed the parser's stack, and a
// 1M-term sum would have built a tree the evaluator overflows on.
func TestHugeNestingIsASyntaxError(t *testing.T) {
	inputs := map[string]string{"1M-term sum": "RETURN " + chain("1", "+1", 1_000_000)}
	if !testing.Short() { // 10M tokens: ~1 GiB while lexing
		inputs["5M parentheses"] = "RETURN " + nest("(", "1", ")", 5_000_000)
	}
	for name, src := range inputs {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *SyntaxError", name, err)
		}
	}
}
