package cypher

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// Parse lexes and parses a Cypher statement.
func Parse(src string) (*Query, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// maxExprDepth bounds how deep an expression may nest. It caps the
// parser's own recursion (parentheses, list and map literals, CASE, call
// arguments, NOT / unary-sign chains) and, separately, the height of the
// tree it builds — a left-associative chain such as 1+1+… adds a level per
// operator without recursing — so neither the parser nor any recursive
// consumer of the AST (evaluator, linter, String) can be driven into Go's
// unrecoverable stack overflow by query text. It is a constant, not an
// option: real queries nest a handful of levels.
const maxExprDepth = 1000

type parser struct {
	toks []Token
	pos  int

	depth int // live recursive-descent nesting
	// height is the AST height of the expression last parsed (for a
	// pattern or map literal: of its tallest property expression, 0 if none).
	height int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Type != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(tt TokenType) bool {
	if p.peek().Type == tt {
		p.next()
		return true
	}
	return false
}

// acceptTok is accept returning the consumed token (for span capture).
func (p *parser) acceptTok(tt TokenType) (Token, bool) {
	if p.peek().Type == tt {
		return p.next(), true
	}
	return Token{}, false
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Type == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Type == TokKeyword && t.Text == kw
}

func (p *parser) expect(tt TokenType, what string) (Token, error) {
	t := p.peek()
	if t.Type != tt {
		return t, p.errf("expected %s, found %s", what, t)
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// descend enters one level of parser recursion; the caller decrements
// p.depth when the recursive call returns.
func (p *parser) descend() error {
	p.depth++
	return p.checkDepth(p.depth)
}

func (p *parser) checkDepth(n int) error {
	if n > maxExprDepth {
		return p.errf("expression nests deeper than %d levels", maxExprDepth)
	}
	return nil
}

// grow records a node built over the expression last parsed and siblings
// whose tallest has height sib: p.height becomes the new node's height.
func (p *parser) grow(sib int) error {
	if sib > p.height {
		p.height = sib
	}
	p.height++
	return p.checkDepth(p.height)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	for {
		t := p.peek()
		if t.Type == TokEOF {
			break
		}
		if t.Type == TokSemi {
			p.next()
			continue
		}
		if t.Type != TokKeyword {
			return nil, p.errf("expected a clause keyword, found %s", t)
		}
		var (
			c   Clause
			err error
		)
		switch t.Text {
		case "MATCH", "OPTIONAL":
			c, err = p.parseMatch()
		case "WITH":
			c, err = p.parseWith()
		case "RETURN":
			c, err = p.parseReturn()
		case "UNWIND":
			c, err = p.parseUnwind()
		case "CREATE":
			c, err = p.parseCreate()
		case "SET":
			c, err = p.parseSet()
		case "DELETE", "DETACH":
			c, err = p.parseDelete()
		case "MERGE", "UNION":
			return nil, p.errf("%s is not supported by this Cypher subset", t.Text)
		default:
			return nil, p.errf("unexpected keyword %s", t.Text)
		}
		if err != nil {
			return nil, err
		}
		q.Clauses = append(q.Clauses, c)
		if _, isReturn := c.(*ReturnClause); isReturn {
			p.accept(TokSemi)
			if t := p.peek(); t.Type != TokEOF {
				return nil, p.errf("RETURN must be the final clause, found %s", t)
			}
		}
	}
	if len(q.Clauses) == 0 {
		return nil, &SyntaxError{Pos: 0, Msg: "empty query"}
	}
	return q, nil
}

func (p *parser) parseMatch() (*MatchClause, error) {
	m := &MatchClause{}
	if p.acceptKeyword("OPTIONAL") {
		m.Optional = true
	}
	if err := p.expectKeyword("MATCH"); err != nil {
		return nil, err
	}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		m.Patterns = append(m.Patterns, pat)
		if !p.accept(TokComma) {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		m.Where = w
	}
	m.sargs = Sargs(m)
	return m, nil
}

func (p *parser) parsePattern() (*PatternPart, error) {
	part := &PatternPart{}
	n, err := p.parseNodePattern()
	if err != nil {
		return nil, err
	}
	part.Nodes = append(part.Nodes, n)
	tallest := p.height
	for {
		t := p.peek()
		if t.Type != TokMinus && t.Type != TokLt {
			break
		}
		rel, err := p.parseRelPattern()
		if err != nil {
			return nil, err
		}
		tallest = max(tallest, p.height)
		n, err := p.parseNodePattern()
		if err != nil {
			return nil, err
		}
		tallest = max(tallest, p.height)
		part.Rels = append(part.Rels, rel)
		part.Nodes = append(part.Nodes, n)
	}
	p.height = tallest
	return part, nil
}

func (p *parser) parseNodePattern() (*NodePattern, error) {
	lparen, err := p.expect(TokLParen, "'(' opening a node pattern")
	if err != nil {
		return nil, err
	}
	n := &NodePattern{}
	p.height = 0
	if t := p.peek(); t.Type == TokIdent {
		n.Var = t.Text
		p.next()
	}
	for p.peek().Type == TokColon {
		p.next()
		lbl, err := p.parseLabelName()
		if err != nil {
			return nil, err
		}
		n.Labels = append(n.Labels, lbl.Name())
		n.LabelSpans = append(n.LabelSpans, lbl.Span())
	}
	if p.peek().Type == TokLBrace {
		props, err := p.parseMapLiteral()
		if err != nil {
			return nil, err
		}
		n.Props = props
	}
	rparen, err := p.expect(TokRParen, "')' closing a node pattern")
	if err != nil {
		return nil, err
	}
	n.Span = Span{Start: lparen.Pos, End: rparen.End}
	return n, nil
}

// parseLabelName accepts identifiers and (to be forgiving about LLM output)
// keywords used as labels, returning the consumed token so callers can
// record both the name and its span.
func (p *parser) parseLabelName() (Token, error) {
	t := p.peek()
	if t.Type == TokIdent || t.Type == TokKeyword {
		p.next()
		return t, nil
	}
	return Token{}, p.errf("expected a label name, found %s", t)
}

func (p *parser) parseRelPattern() (*RelPattern, error) {
	r := &RelPattern{MinHops: 1, MaxHops: 1}
	p.height = 0
	start := p.peek().Pos
	if p.accept(TokLt) {
		r.Direction = DirIn
	}
	if _, err := p.expect(TokMinus, "'-' in a relationship pattern"); err != nil {
		return nil, err
	}
	if p.accept(TokLBracket) {
		if t := p.peek(); t.Type == TokIdent {
			r.Var = t.Text
			p.next()
		}
		if p.accept(TokColon) {
			for {
				typ, err := p.parseLabelName()
				if err != nil {
					return nil, err
				}
				r.Types = append(r.Types, typ.Name())
				r.TypeSpans = append(r.TypeSpans, typ.Span())
				if p.accept(TokPipe) {
					p.accept(TokColon) // tolerate :A|:B and :A|B
					continue
				}
				break
			}
		}
		if p.accept(TokStar) {
			r.MinHops, r.MaxHops = 1, -1
			if t := p.peek(); t.Type == TokInt {
				lo, _ := strconv.Atoi(t.Text)
				p.next()
				r.MinHops, r.MaxHops = lo, lo
				if p.accept(TokDotDot) {
					r.MaxHops = -1
					if t := p.peek(); t.Type == TokInt {
						hi, _ := strconv.Atoi(t.Text)
						p.next()
						r.MaxHops = hi
					}
				}
			} else if p.accept(TokDotDot) {
				if t := p.peek(); t.Type == TokInt {
					hi, _ := strconv.Atoi(t.Text)
					p.next()
					r.MaxHops = hi
				}
			}
		}
		if p.peek().Type == TokLBrace {
			props, err := p.parseMapLiteral()
			if err != nil {
				return nil, err
			}
			r.Props = props
		}
		if _, err := p.expect(TokRBracket, "']' closing a relationship pattern"); err != nil {
			return nil, err
		}
	}
	dash, err := p.expect(TokMinus, "'-' in a relationship pattern")
	if err != nil {
		return nil, err
	}
	end := dash.End
	if gt, ok := p.acceptTok(TokGt); ok {
		if r.Direction == DirIn {
			return nil, p.errf("relationship cannot point both ways")
		}
		r.Direction = DirOut
		end = gt.End
	}
	r.Span = Span{Start: start, End: end}
	return r, nil
}

func (p *parser) parseMapLiteral() (map[string]Expr, error) {
	if _, err := p.expect(TokLBrace, "'{'"); err != nil {
		return nil, err
	}
	props := map[string]Expr{}
	p.height = 0
	if p.accept(TokRBrace) {
		return props, nil
	}
	tallest := 0
	for {
		keyTok := p.peek()
		if keyTok.Type != TokIdent && keyTok.Type != TokKeyword {
			return nil, p.errf("expected a property key, found %s", keyTok)
		}
		p.next()
		if _, err := p.expect(TokColon, "':' after property key"); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		props[keyTok.Name()] = v
		tallest = max(tallest, p.height)
		if p.accept(TokComma) {
			continue
		}
		break
	}
	if _, err := p.expect(TokRBrace, "'}' closing a map"); err != nil {
		return nil, err
	}
	p.height = tallest
	return props, nil
}

func (p *parser) parseWith() (*WithClause, error) {
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	w := &WithClause{}
	proj, err := p.parseProjection(true)
	if err != nil {
		return nil, err
	}
	w.Projection = *proj
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		w.Where = e
	}
	return w, nil
}

func (p *parser) parseReturn() (*ReturnClause, error) {
	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	proj, err := p.parseProjection(false)
	if err != nil {
		return nil, err
	}
	return &ReturnClause{Projection: *proj}, nil
}

func (p *parser) parseProjection(isWith bool) (*Projection, error) {
	proj := &Projection{}
	if p.acceptKeyword("DISTINCT") {
		proj.Distinct = true
	}
	// A leading '*' means "all variables"; it may be followed by more items.
	if p.peek().Type == TokStar {
		p.next()
		proj.Star = true
		if p.accept(TokComma) {
			if err := p.parseReturnItems(proj); err != nil {
				return nil, err
			}
		}
	} else {
		if err := p.parseReturnItems(proj); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			si := &SortItem{Expr: e}
			if p.acceptKeyword("DESC") || p.acceptKeyword("DESCENDING") {
				si.Desc = true
			} else if p.acceptKeyword("ASC") || p.acceptKeyword("ASCENDING") {
				si.Desc = false
			}
			proj.OrderBy = append(proj.OrderBy, si)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if p.acceptKeyword("SKIP") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		proj.Skip = e
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		proj.Limit = e
	}
	_ = isWith
	return proj, nil
}

func (p *parser) parseReturnItems(proj *Projection) error {
	for {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		item := &ReturnItem{Expr: e}
		if p.acceptKeyword("AS") {
			t := p.peek()
			if t.Type != TokIdent && t.Type != TokKeyword {
				return p.errf("expected an alias after AS, found %s", t)
			}
			p.next()
			item.Alias = t.Name()
		}
		proj.Items = append(proj.Items, item)
		if !p.accept(TokComma) {
			return nil
		}
	}
}

func (p *parser) parseUnwind() (*UnwindClause, error) {
	if err := p.expectKeyword("UNWIND"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "variable name")
	if err != nil {
		return nil, err
	}
	return &UnwindClause{Expr: e, Alias: t.Text}, nil
}

func (p *parser) parseCreate() (*CreateClause, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	c := &CreateClause{}
	for {
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		c.Patterns = append(c.Patterns, pat)
		if !p.accept(TokComma) {
			break
		}
	}
	return c, nil
}

func (p *parser) parseSet() (*SetClause, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	s := &SetClause{}
	for {
		t, err := p.expect(TokIdent, "variable name in SET")
		if err != nil {
			return nil, err
		}
		item := &SetItem{Target: t.Text}
		switch {
		case p.accept(TokDot):
			key := p.peek()
			if key.Type != TokIdent && key.Type != TokKeyword {
				return nil, p.errf("expected property key, found %s", key)
			}
			p.next()
			item.Key = key.Name()
			if _, err := p.expect(TokEq, "'=' in SET"); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Value = v
		case p.peek().Type == TokColon:
			for p.accept(TokColon) {
				lbl, err := p.parseLabelName()
				if err != nil {
					return nil, err
				}
				item.Labels = append(item.Labels, lbl.Name())
			}
		default:
			return nil, p.errf("expected '.' or ':' in SET item, found %s", p.peek())
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokComma) {
			break
		}
	}
	return s, nil
}

func (p *parser) parseDelete() (*DeleteClause, error) {
	d := &DeleteClause{}
	if p.acceptKeyword("DETACH") {
		d.Detach = true
	}
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Exprs = append(d.Exprs, e)
		if !p.accept(TokComma) {
			break
		}
	}
	return d, nil
}

// ---------- expressions ----------

func (p *parser) parseExpr() (Expr, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	p.depth--
	return e, err
}

// binary parses op's right operand with next and links it over l.
func (p *parser) binary(op BinaryOp, opSpan Span, l Expr, next func() (Expr, error)) (Expr, error) {
	hl := p.height
	r, err := next()
	if err != nil {
		return nil, err
	}
	if err := p.grow(hl); err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r, OpSpan: opSpan}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseXor()
	for err == nil && p.acceptKeyword("OR") {
		l, err = p.binary(OpOr, Span{}, l, p.parseXor)
	}
	return l, err
}

func (p *parser) parseXor() (Expr, error) {
	l, err := p.parseAnd()
	for err == nil && p.acceptKeyword("XOR") {
		l, err = p.binary(OpXor, Span{}, l, p.parseAnd)
	}
	return l, err
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	for err == nil && p.acceptKeyword("AND") {
		l, err = p.binary(OpAnd, Span{}, l, p.parseNot)
	}
	return l, err
}

func (p *parser) parseNot() (Expr, error) {
	if !p.acceptKeyword("NOT") {
		return p.parseComparison()
	}
	if err := p.descend(); err != nil {
		return nil, err
	}
	e, err := p.parseNot()
	p.depth--
	if err != nil {
		return nil, err
	}
	if err := p.grow(0); err != nil {
		return nil, err
	}
	return &Not{E: e}, nil
}

var compOps = map[TokenType]BinaryOp{
	TokEq: OpEq, TokNeq: OpNeq, TokLt: OpLt, TokGt: OpGt,
	TokLte: OpLte, TokGte: OpGte, TokRegex: OpRegex,
}

// compKeywordOps are the keyword-spelled comparison operators; STARTS and
// ENDS are followed by WITH.
var compKeywordOps = map[string]BinaryOp{
	"IN": OpIn, "STARTS": OpStartsWith, "ENDS": OpEndsWith, "CONTAINS": OpContains,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	for err == nil {
		t := p.peek()
		op, ok := compOps[t.Type]
		if !ok && t.Type == TokKeyword {
			if t.Text == "IS" {
				p.next()
				negate := p.acceptKeyword("NOT")
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				if err := p.grow(0); err != nil {
					return nil, err
				}
				l = &IsNull{E: l, Negate: negate}
				continue
			}
			op, ok = compKeywordOps[t.Text]
		}
		if !ok {
			break
		}
		p.next()
		if op == OpStartsWith || op == OpEndsWith {
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
		}
		l, err = p.binary(op, t.Span(), l, p.parseAdditive)
	}
	return l, err
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	for err == nil {
		var op BinaryOp
		switch p.peek().Type {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.next()
		l, err = p.binary(op, Span{}, l, p.parseMultiplicative)
	}
	return l, err
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	for err == nil {
		var op BinaryOp
		switch p.peek().Type {
		case TokStar:
			op = OpMul
		case TokSlash:
			op = OpDiv
		case TokPercent:
			op = OpMod
		default:
			return l, nil
		}
		p.next()
		l, err = p.binary(op, Span{}, l, p.parseUnary)
	}
	return l, err
}

func (p *parser) parseUnary() (Expr, error) {
	sign := p.peek().Type
	if sign != TokMinus && sign != TokPlus {
		return p.parsePostfix()
	}
	p.next()
	if err := p.descend(); err != nil {
		return nil, err
	}
	e, err := p.parseUnary()
	p.depth--
	if err != nil || sign == TokPlus {
		return e, err
	}
	if err := p.grow(0); err != nil {
		return nil, err
	}
	return &Neg{E: e}, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Type {
		case TokDot:
			p.next()
			t := p.peek()
			if t.Type != TokIdent && t.Type != TokKeyword {
				return nil, p.errf("expected property key after '.', found %s", t)
			}
			p.next()
			if err := p.grow(0); err != nil {
				return nil, err
			}
			e = &PropAccess{Target: e, Key: t.Name(), KeySpan: t.Span()}
		case TokLBracket:
			p.next()
			ht := p.height
			sub, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket, "']'"); err != nil {
				return nil, err
			}
			if err := p.grow(ht); err != nil {
				return nil, err
			}
			e = &Index{Target: e, Sub: sub}
		case TokColon:
			// Label predicate: only meaningful on a variable-rooted
			// expression, and only when followed by a name.
			if _, isVar := e.(*Variable); !isVar {
				return e, nil
			}
			if nt := p.peekAt(1); nt.Type != TokIdent && nt.Type != TokKeyword {
				return e, nil
			}
			var labels []string
			for p.peek().Type == TokColon {
				nt := p.peekAt(1)
				if nt.Type != TokIdent && nt.Type != TokKeyword {
					break
				}
				p.next() // colon
				p.next() // label
				labels = append(labels, nt.Name())
			}
			if err := p.grow(0); err != nil {
				return nil, err
			}
			e = &HasLabels{E: e, Labels: labels}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.peek()
	p.height = 1 // leaves; composite atoms grow it below
	switch t.Type {
	case TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal %q", t.Text)
		}
		return &Literal{Value: graph.NewInt(n)}, nil
	case TokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("invalid float literal %q", t.Text)
		}
		return &Literal{Value: graph.NewFloat(f)}, nil
	case TokString:
		p.next()
		return &Literal{Value: graph.NewString(t.Text)}, nil
	case TokDollar:
		p.next()
		name := p.peek()
		if name.Type != TokIdent && name.Type != TokKeyword && name.Type != TokInt {
			return nil, p.errf("expected parameter name after '$', found %s", name)
		}
		p.next()
		return &Parameter{Name: name.Name()}, nil
	case TokLBracket:
		p.next()
		lst := &ListLit{}
		if p.accept(TokRBracket) {
			return lst, nil
		}
		tallest := 0
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lst.Elems = append(lst.Elems, e)
			tallest = max(tallest, p.height)
			if p.accept(TokComma) {
				continue
			}
			break
		}
		if _, err := p.expect(TokRBracket, "']' closing a list"); err != nil {
			return nil, err
		}
		if err := p.grow(tallest); err != nil {
			return nil, err
		}
		return lst, nil
	case TokLParen:
		// Either a parenthesized expression or a pattern predicate.
		if e, ok := p.tryParsePatternPred(); ok {
			return e, nil
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: graph.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: graph.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: graph.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			return p.parseExistsBody()
		case "COUNT", "ALL":
			// permit count(...) even though COUNT could be a keyword in
			// other dialects; here it lexes as ident, so this is unreachable,
			// kept for safety.
			p.next()
			return nil, p.errf("unexpected keyword %s in expression", t.Text)
		default:
			return nil, p.errf("unexpected keyword %s in expression", t.Text)
		}
	case TokIdent:
		// Function call or variable.
		if p.peekAt(1).Type == TokLParen {
			return p.parseFuncCall()
		}
		p.next()
		return &Variable{Name: t.Text, Span: t.Span()}, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

// parseExistsBody parses what follows the EXISTS keyword: either
// exists(expr), exists(pattern) or exists { pattern }.
func (p *parser) parseExistsBody() (Expr, error) {
	if p.peek().Type == TokLBrace {
		p.next()
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBrace, "'}' closing EXISTS"); err != nil {
			return nil, err
		}
		if err := p.grow(0); err != nil {
			return nil, err
		}
		return &PatternPred{Pattern: pat}, nil
	}
	if _, err := p.expect(TokLParen, "'(' after EXISTS"); err != nil {
		return nil, err
	}
	if e, ok := p.tryParsePatternPred(); ok {
		if _, err := p.expect(TokRParen, "')' closing EXISTS"); err != nil {
			return nil, err
		}
		return e, nil
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, "')' closing EXISTS"); err != nil {
		return nil, err
	}
	if err := p.grow(0); err != nil {
		return nil, err
	}
	return &FuncCall{Name: "exists", Args: []Expr{arg}}, nil
}

// tryParsePatternPred attempts to parse a pattern predicate starting at the
// current '(' token. It backtracks and reports false when the tokens do not
// form a multi-element pattern (or form one too tall to keep).
func (p *parser) tryParsePatternPred() (Expr, bool) {
	save := p.pos
	pat, err := p.parsePattern()
	if err != nil || len(pat.Rels) == 0 || p.grow(0) != nil {
		p.pos = save
		return nil, false
	}
	return &PatternPred{Pattern: pat}, true
}

func (p *parser) parseFuncCall() (Expr, error) {
	nameTok := p.next()
	name := strings.ToLower(nameTok.Text)
	if _, err := p.expect(TokLParen, "'('"); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name, NameSpan: nameTok.Span()}
	if name == "exists" {
		// exists(pattern) or exists(expr); the '(' is already consumed.
		if e, ok := p.tryParsePatternPred(); ok {
			if _, err := p.expect(TokRParen, "')'"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	p.height = 1 // an argument-less call is a leaf
	if p.peek().Type == TokStar {
		p.next()
		fc.Star = true
		if _, err := p.expect(TokRParen, "')' after '*'"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(TokRParen) {
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	tallest := 0
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		tallest = max(tallest, p.height)
		if p.accept(TokComma) {
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen, "')' closing call"); err != nil {
		return nil, err
	}
	if err := p.grow(tallest); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	tallest := 0
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
		tallest = p.height
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		tallest = max(tallest, p.height)
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		tallest = max(tallest, p.height)
		c.Whens = append(c.Whens, w)
		c.Thens = append(c.Thens, th)
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
		tallest = max(tallest, p.height)
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	if err := p.grow(tallest); err != nil {
		return nil, err
	}
	return c, nil
}
