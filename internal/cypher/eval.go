package cypher

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// ExecError reports a runtime execution failure (type errors, unknown
// variables or functions, division by zero).
type ExecError struct {
	Msg string
}

func (e *ExecError) Error() string { return "cypher: " + e.Msg }

func execErrf(format string, args ...any) error {
	return &ExecError{Msg: fmt.Sprintf(format, args...)}
}

// Datum is one bound value in a row: a node, an edge, or a scalar value.
// The zero Datum is the null scalar.
type Datum struct {
	Node *graph.Node
	Edge *graph.Edge
	Val  graph.Value
}

// NullDatum is the null scalar datum.
var NullDatum = Datum{}

// ValDatum wraps a scalar value.
func ValDatum(v graph.Value) Datum { return Datum{Val: v} }

// NodeDatum wraps a node.
func NodeDatum(n *graph.Node) Datum { return Datum{Node: n} }

// EdgeDatum wraps an edge.
func EdgeDatum(e *graph.Edge) Datum { return Datum{Edge: e} }

// IsEntity reports whether the datum holds a node or an edge.
func (d Datum) IsEntity() bool { return d.Node != nil || d.Edge != nil }

// IsNull reports whether the datum is the null scalar.
func (d Datum) IsNull() bool { return !d.IsEntity() && d.Val.IsNull() }

// Scalar lowers the datum to a plain value. Entities lower to their ID (a
// documented coercion that makes collect(n)/grouping on nodes total).
func (d Datum) Scalar() graph.Value {
	switch {
	case d.Node != nil:
		return graph.NewInt(int64(d.Node.ID))
	case d.Edge != nil:
		return graph.NewInt(int64(d.Edge.ID))
	default:
		return d.Val
	}
}

// appendHashable appends d's grouping key to dst: entities by ID, scalars
// by sort key, each followed by its length in 4 bytes so that the keys of
// several columns appended in turn never run together.
func (d Datum) appendHashable(dst []byte) []byte {
	start := len(dst)
	switch {
	case d.Node != nil:
		dst = strconv.AppendInt(append(dst, 'N'), int64(d.Node.ID), 10)
	case d.Edge != nil:
		dst = strconv.AppendInt(append(dst, 'E'), int64(d.Edge.ID), 10)
	default:
		dst = d.Val.AppendSortKey(append(dst, 'V'))
	}
	return binary.BigEndian.AppendUint32(dst, uint32(len(dst)-start))
}

// Display renders the datum for human-readable output.
func (d Datum) Display() string {
	switch {
	case d.Node != nil:
		return fmt.Sprintf("(%s {id:%d})", strings.Join(d.Node.Labels, ":"), d.Node.ID)
	case d.Edge != nil:
		return fmt.Sprintf("[:%s {id:%d}]", d.Edge.Type(), d.Edge.ID)
	default:
		return d.Val.Display()
	}
}

// Row is one binding table row: the datum of each of its query's variables,
// indexed by the slot resolve gave the variable's name (slots.go). A slot
// nothing binds holds unbound.
type Row []Datum

func (r Row) clone() Row { return append(Row(nil), r...) }

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	g       *graph.Graph
	params  map[string]graph.Value
	matcher *matcher
	// aggResults maps aggregate FuncCall nodes (by identity) to their
	// computed value for the current group; non-nil only while projecting a
	// grouped result.
	aggResults map[*FuncCall]Datum
	regexCache map[string]*regexp.Regexp
}

func newEvalCtx(g *graph.Graph, params map[string]graph.Value, m *matcher) *evalCtx {
	return &evalCtx{g: g, params: params, matcher: m, regexCache: map[string]*regexp.Regexp{}}
}

func (c *evalCtx) compileRegex(pat string) (*regexp.Regexp, error) {
	if re, ok := c.regexCache[pat]; ok {
		return re, nil
	}
	// Cypher's =~ is a full match.
	re, err := regexp.Compile("^(?:" + pat + ")$")
	if err != nil {
		return nil, execErrf("invalid regular expression %q: %v", pat, err)
	}
	c.regexCache[pat] = re
	return re, nil
}

// eval evaluates an expression in a row context.
func (c *evalCtx) eval(e Expr, row Row) (Datum, error) {
	switch x := e.(type) {
	case *Literal:
		return ValDatum(x.Value), nil
	case *Variable:
		if d := row[x.slot]; d.bound() {
			return d, nil
		}
		return NullDatum, execErrf("variable `%s` not defined", x.Name)
	case *Parameter:
		if c.params == nil {
			return NullDatum, execErrf("parameter $%s supplied to a query without parameters", x.Name)
		}
		v, ok := c.params[x.Name]
		if !ok {
			return NullDatum, execErrf("missing parameter $%s", x.Name)
		}
		return ValDatum(v), nil
	case *PropAccess:
		if v, ok := x.Target.(*Variable); ok && row[v.slot].Node != nil && row[v.slot].bound() {
			return ValDatum(row[v.slot].Node.Prop(x.Key)), nil // the common n.key
		}
		t, err := c.eval(x.Target, row)
		if err != nil {
			return NullDatum, err
		}
		switch {
		case t.Node != nil:
			return ValDatum(t.Node.Prop(x.Key)), nil
		case t.Edge != nil:
			return ValDatum(t.Edge.Prop(x.Key)), nil
		case t.Val.IsNull():
			return NullDatum, nil
		default:
			return NullDatum, execErrf("type error: cannot access property .%s on %s", x.Key, t.Val.Kind())
		}
	case *Binary:
		return c.evalBinary(x, row)
	case *Not:
		v, err := c.evalBool(x.E, row)
		if err != nil {
			return NullDatum, err
		}
		return ValDatum(notTri(v)), nil
	case *Neg:
		v, err := c.eval(x.E, row)
		if err != nil {
			return NullDatum, err
		}
		sv := v.Scalar()
		switch sv.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindInt:
			return ValDatum(graph.NewInt(-sv.Int())), nil
		case graph.KindFloat:
			return ValDatum(graph.NewFloat(-sv.Float())), nil
		default:
			return NullDatum, execErrf("type error: cannot negate %s", sv.Kind())
		}
	case *IsNull:
		v, err := c.eval(x.E, row)
		if err != nil {
			return NullDatum, err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return ValDatum(graph.NewBool(res)), nil
	case *HasLabels:
		t, err := c.eval(x.E, row)
		if err != nil {
			return NullDatum, err
		}
		if t.IsNull() {
			return NullDatum, nil
		}
		switch {
		case t.Node != nil:
			for _, l := range x.Labels {
				if !t.Node.HasLabel(l) {
					return ValDatum(graph.NewBool(false)), nil
				}
			}
			return ValDatum(graph.NewBool(true)), nil
		case t.Edge != nil:
			for _, l := range x.Labels {
				if !t.Edge.HasLabel(l) {
					return ValDatum(graph.NewBool(false)), nil
				}
			}
			return ValDatum(graph.NewBool(true)), nil
		default:
			return NullDatum, execErrf("type error: label predicate on a %s value", t.Val.Kind())
		}
	case *FuncCall:
		if c.aggResults != nil {
			if d, ok := c.aggResults[x]; ok {
				return d, nil
			}
		}
		if aggregateFuncs[x.Name] {
			return NullDatum, execErrf("aggregate function %s() used outside an aggregating projection", x.Name)
		}
		return c.evalFunc(x, row)
	case *ListLit:
		elems := make([]graph.Value, len(x.Elems))
		for i, ee := range x.Elems {
			d, err := c.eval(ee, row)
			if err != nil {
				return NullDatum, err
			}
			elems[i] = d.Scalar()
		}
		return ValDatum(graph.NewList(elems...)), nil
	case *Index:
		t, err := c.eval(x.Target, row)
		if err != nil {
			return NullDatum, err
		}
		s, err := c.eval(x.Sub, row)
		if err != nil {
			return NullDatum, err
		}
		tv, sv := t.Scalar(), s.Scalar()
		if tv.IsNull() || sv.IsNull() {
			return NullDatum, nil
		}
		if tv.Kind() != graph.KindList || sv.Kind() != graph.KindInt {
			return NullDatum, execErrf("type error: %s[%s] subscript", tv.Kind(), sv.Kind())
		}
		lst := tv.List()
		idx := sv.Int()
		if idx < 0 {
			idx += int64(len(lst))
		}
		if idx < 0 || idx >= int64(len(lst)) {
			return NullDatum, nil
		}
		return ValDatum(lst[idx]), nil
	case *PatternPred:
		if c.matcher == nil {
			return NullDatum, execErrf("pattern predicate not supported in this context")
		}
		found, err := c.matcher.exists(x.Pattern, row)
		if err != nil {
			return NullDatum, err
		}
		return ValDatum(graph.NewBool(found)), nil
	case *CaseExpr:
		return c.evalCase(x, row)
	default:
		return NullDatum, execErrf("unsupported expression %T", e)
	}
}

// tri is three-valued logic: -1 false, 0 unknown(null), 1 true.
type tri int8

const (
	triFalse tri = -1
	triNull  tri = 0
	triTrue  tri = 1
)

func notTri(t tri) graph.Value {
	switch t {
	case triTrue:
		return graph.NewBool(false)
	case triFalse:
		return graph.NewBool(true)
	default:
		return graph.Null
	}
}

func triOf(v graph.Value) (tri, error) {
	switch v.Kind() {
	case graph.KindNull:
		return triNull, nil
	case graph.KindBool:
		if v.Bool() {
			return triTrue, nil
		}
		return triFalse, nil
	default:
		return triNull, execErrf("type error: expected a boolean, got %s", v.Kind())
	}
}

// evalBool evaluates an expression to three-valued logic.
func (c *evalCtx) evalBool(e Expr, row Row) (tri, error) {
	d, err := c.eval(e, row)
	if err != nil {
		return triNull, err
	}
	return triOf(d.Scalar())
}

func (c *evalCtx) evalBinary(b *Binary, row Row) (Datum, error) {
	switch b.Op {
	case OpAnd, OpOr, OpXor:
		l, err := c.evalBool(b.L, row)
		if err != nil {
			return NullDatum, err
		}
		// Short-circuit where three-valued logic allows it.
		if b.Op == OpAnd && l == triFalse {
			return ValDatum(graph.NewBool(false)), nil
		}
		if b.Op == OpOr && l == triTrue {
			return ValDatum(graph.NewBool(true)), nil
		}
		r, err := c.evalBool(b.R, row)
		if err != nil {
			return NullDatum, err
		}
		switch b.Op {
		case OpAnd:
			switch {
			case r == triFalse:
				return ValDatum(graph.NewBool(false)), nil
			case l == triTrue && r == triTrue:
				return ValDatum(graph.NewBool(true)), nil
			default:
				return NullDatum, nil
			}
		case OpOr:
			switch {
			case r == triTrue:
				return ValDatum(graph.NewBool(true)), nil
			case l == triFalse && r == triFalse:
				return ValDatum(graph.NewBool(false)), nil
			default:
				return NullDatum, nil
			}
		default: // XOR
			if l == triNull || r == triNull {
				return NullDatum, nil
			}
			return ValDatum(graph.NewBool((l == triTrue) != (r == triTrue))), nil
		}
	}

	ld, err := c.eval(b.L, row)
	if err != nil {
		return NullDatum, err
	}
	rd, err := c.eval(b.R, row)
	if err != nil {
		return NullDatum, err
	}

	// Entity equality compares identity.
	if (b.Op == OpEq || b.Op == OpNeq) && ld.IsEntity() && rd.IsEntity() {
		same := (ld.Node != nil && rd.Node != nil && ld.Node.ID == rd.Node.ID) ||
			(ld.Edge != nil && rd.Edge != nil && ld.Edge.ID == rd.Edge.ID)
		if b.Op == OpNeq {
			same = !same
		}
		return ValDatum(graph.NewBool(same)), nil
	}

	l, r := ld.Scalar(), rd.Scalar()
	switch b.Op {
	case OpEq, OpNeq:
		if l.IsNull() || r.IsNull() {
			return NullDatum, nil
		}
		eq := l.Equal(r)
		if b.Op == OpNeq {
			eq = !eq
		}
		return ValDatum(graph.NewBool(eq)), nil
	case OpLt, OpGt, OpLte, OpGte:
		if l.IsNull() || r.IsNull() {
			return NullDatum, nil
		}
		cv, ok := l.Compare(r)
		if !ok {
			// Incomparable kinds yield null (Neo4j semantics); two numbers
			// are incomparable only when one is NaN, and then it is false.
			_, ln := l.AsFloat()
			_, rn := r.AsFloat()
			if ln && rn {
				return ValDatum(graph.NewBool(false)), nil
			}
			return NullDatum, nil
		}
		var res bool
		switch b.Op {
		case OpLt:
			res = cv < 0
		case OpGt:
			res = cv > 0
		case OpLte:
			res = cv <= 0
		default:
			res = cv >= 0
		}
		return ValDatum(graph.NewBool(res)), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return arith(b.Op, l, r)
	case OpIn:
		if r.IsNull() {
			return NullDatum, nil
		}
		if r.Kind() != graph.KindList {
			return NullDatum, execErrf("type error: IN requires a list, got %s", r.Kind())
		}
		if l.IsNull() {
			return NullDatum, nil
		}
		sawNull := false
		for _, e := range r.List() {
			if e.IsNull() {
				sawNull = true
				continue
			}
			if l.Equal(e) {
				return ValDatum(graph.NewBool(true)), nil
			}
		}
		if sawNull {
			return NullDatum, nil
		}
		return ValDatum(graph.NewBool(false)), nil
	case OpRegex:
		if l.IsNull() || r.IsNull() {
			return NullDatum, nil
		}
		if l.Kind() != graph.KindString {
			return NullDatum, nil
		}
		if r.Kind() != graph.KindString {
			return NullDatum, execErrf("type error: =~ requires a string pattern, got %s", r.Kind())
		}
		re, err := c.compileRegex(r.Str())
		if err != nil {
			return NullDatum, err
		}
		return ValDatum(graph.NewBool(re.MatchString(l.Str()))), nil
	case OpStartsWith, OpEndsWith, OpContains:
		if l.IsNull() || r.IsNull() {
			return NullDatum, nil
		}
		if l.Kind() != graph.KindString || r.Kind() != graph.KindString {
			return NullDatum, nil
		}
		var res bool
		switch b.Op {
		case OpStartsWith:
			res = strings.HasPrefix(l.Str(), r.Str())
		case OpEndsWith:
			res = strings.HasSuffix(l.Str(), r.Str())
		default:
			res = strings.Contains(l.Str(), r.Str())
		}
		return ValDatum(graph.NewBool(res)), nil
	default:
		return NullDatum, execErrf("unsupported binary operator")
	}
}

func arith(op BinaryOp, l, r graph.Value) (Datum, error) {
	if l.IsNull() || r.IsNull() {
		return NullDatum, nil
	}
	// String concatenation.
	if op == OpAdd && (l.Kind() == graph.KindString || r.Kind() == graph.KindString) {
		ls, rs := l, r
		if ls.Kind() != graph.KindString {
			ls = graph.NewString(ls.Display())
		}
		if rs.Kind() != graph.KindString {
			rs = graph.NewString(rs.Display())
		}
		return ValDatum(graph.NewString(ls.Str() + rs.Str())), nil
	}
	// List concatenation.
	if op == OpAdd && l.Kind() == graph.KindList && r.Kind() == graph.KindList {
		out := append(append([]graph.Value{}, l.List()...), r.List()...)
		return ValDatum(graph.NewList(out...)), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return NullDatum, execErrf("type error: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	bothInt := l.Kind() == graph.KindInt && r.Kind() == graph.KindInt
	switch op {
	case OpAdd:
		if bothInt {
			return ValDatum(graph.NewInt(l.Int() + r.Int())), nil
		}
		return ValDatum(graph.NewFloat(lf + rf)), nil
	case OpSub:
		if bothInt {
			return ValDatum(graph.NewInt(l.Int() - r.Int())), nil
		}
		return ValDatum(graph.NewFloat(lf - rf)), nil
	case OpMul:
		if bothInt {
			return ValDatum(graph.NewInt(l.Int() * r.Int())), nil
		}
		return ValDatum(graph.NewFloat(lf * rf)), nil
	case OpDiv:
		if bothInt {
			if r.Int() == 0 {
				return NullDatum, execErrf("division by zero")
			}
			return ValDatum(graph.NewInt(l.Int() / r.Int())), nil
		}
		if rf == 0 {
			return NullDatum, execErrf("division by zero")
		}
		return ValDatum(graph.NewFloat(lf / rf)), nil
	case OpMod:
		if bothInt {
			if r.Int() == 0 {
				return NullDatum, execErrf("division by zero")
			}
			return ValDatum(graph.NewInt(l.Int() % r.Int())), nil
		}
		return NullDatum, execErrf("type error: %% requires integers")
	}
	return NullDatum, execErrf("unsupported arithmetic operator")
}

func (c *evalCtx) evalCase(x *CaseExpr, row Row) (Datum, error) {
	if x.Operand != nil {
		op, err := c.eval(x.Operand, row)
		if err != nil {
			return NullDatum, err
		}
		for i := range x.Whens {
			w, err := c.eval(x.Whens[i], row)
			if err != nil {
				return NullDatum, err
			}
			if !op.Scalar().IsNull() && op.Scalar().Equal(w.Scalar()) {
				return c.eval(x.Thens[i], row)
			}
		}
	} else {
		for i := range x.Whens {
			t, err := c.evalBool(x.Whens[i], row)
			if err != nil {
				return NullDatum, err
			}
			if t == triTrue {
				return c.eval(x.Thens[i], row)
			}
		}
	}
	if x.Else != nil {
		return c.eval(x.Else, row)
	}
	return NullDatum, nil
}
