package cypher

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/graphrules/graphrules/internal/graph"
)

// Query is a parsed Cypher statement: an ordered list of clauses.
type Query struct {
	Clauses []Clause

	resolved sync.Once // slots.go: numbers the variables at first execution
	width    int       // slots a binding row of this query has
}

// String renders the query back to Cypher text.
func (q *Query) String() string {
	parts := make([]string, len(q.Clauses))
	for i, c := range q.Clauses {
		parts[i] = c.clauseString()
	}
	return strings.Join(parts, " ")
}

// quoteIdent renders an identifier, backtick-quoting it when it is not a
// plain name (so Query.String output always re-parses).
func quoteIdent(s string) string {
	plain := s != ""
	for i, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9') {
			continue
		}
		plain = false
		break
	}
	if plain {
		return s
	}
	return "`" + s + "`"
}

// Clause is one query clause (MATCH, WITH, RETURN, ...).
type Clause interface {
	clauseString() string
}

// Direction of a relationship pattern.
type Direction uint8

const (
	DirBoth Direction = iota // -[]-
	DirOut                   // -[]->
	DirIn                    // <-[]-
)

// NodePattern is a node element in a pattern: (v:Label {key: expr}).
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr

	// Span covers '(' through ')'; LabelSpans[i] covers Labels[i]'s name
	// token. Both are zero for programmatically built patterns.
	Span       Span
	LabelSpans []Span

	slot  int        // Var's binding-row slot (slots.go)
	props []propExpr // Props in key order (slots.go)
}

func (n *NodePattern) String() string {
	var b strings.Builder
	b.WriteByte('(')
	if n.Var != "" {
		b.WriteString(quoteIdent(n.Var))
	}
	for _, l := range n.Labels {
		b.WriteByte(':')
		b.WriteString(quoteIdent(l))
	}
	if len(n.Props) > 0 {
		b.WriteString(" " + propsString(n.Props))
	}
	b.WriteByte(')')
	return b.String()
}

// RelPattern is a relationship element in a pattern: -[v:TYPE {..}]->.
// MinHops/MaxHops describe variable-length paths; both are 1 for a plain
// relationship, and MaxHops<0 means unbounded.
type RelPattern struct {
	Var       string
	Types     []string
	Props     map[string]Expr
	Direction Direction
	MinHops   int
	MaxHops   int

	// Span covers the whole relationship element including its arrowheads
	// ('<-[...]-' / '-[...]->'); TypeSpans[i] covers Types[i]'s name token.
	Span      Span
	TypeSpans []Span

	slot  int        // Var's binding-row slot (slots.go)
	props []propExpr // Props in key order (slots.go)
}

// IsVarLength reports whether the pattern is a variable-length relationship.
func (r *RelPattern) IsVarLength() bool {
	return r.MinHops != 1 || r.MaxHops != 1
}

func (r *RelPattern) String() string {
	var b strings.Builder
	if r.Direction == DirIn {
		b.WriteByte('<')
	}
	b.WriteByte('-')
	inner := ""
	if r.Var != "" {
		inner = quoteIdent(r.Var)
	}
	if len(r.Types) > 0 {
		quoted := make([]string, len(r.Types))
		for i, t := range r.Types {
			quoted[i] = quoteIdent(t)
		}
		inner += ":" + strings.Join(quoted, "|")
	}
	if r.IsVarLength() {
		if r.MaxHops < 0 {
			inner += fmt.Sprintf("*%d..", r.MinHops)
		} else {
			inner += fmt.Sprintf("*%d..%d", r.MinHops, r.MaxHops)
		}
	}
	if len(r.Props) > 0 {
		inner += " " + propsString(r.Props)
	}
	if inner != "" {
		b.WriteString("[" + inner + "]")
	}
	b.WriteByte('-')
	if r.Direction == DirOut {
		b.WriteByte('>')
	}
	return b.String()
}

func propsString(props map[string]Expr) string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = quoteIdent(k) + ": " + props[k].exprString()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// PatternPart is one comma-separated path pattern: alternating node and
// relationship elements, starting and ending with a node.
type PatternPart struct {
	Nodes []*NodePattern // len = len(Rels)+1
	Rels  []*RelPattern
}

// SourceSpan returns the byte span of the whole part in the query source
// (zero when the part was built programmatically).
func (p *PatternPart) SourceSpan() Span {
	if len(p.Nodes) == 0 || p.Nodes[0].Span.IsZero() {
		return Span{}
	}
	return Span{Start: p.Nodes[0].Span.Start, End: p.Nodes[len(p.Nodes)-1].Span.End}
}

func (p *PatternPart) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		b.WriteString(n.String())
		if i < len(p.Rels) {
			b.WriteString(p.Rels[i].String())
		}
	}
	return b.String()
}

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE.
type MatchClause struct {
	Optional bool
	Patterns []*PatternPart
	Where    Expr

	sargs []Sarg          // index-eligible predicates, classified once by the parser
	bound map[string]bool // variables bound before the clause (slots.go)
	parts []*PatternPart  // Patterns in execution order, some reversed (plan.go)
	order *access         // the key-order walk it provides the next projection (sarg.go)
}

func (m *MatchClause) clauseString() string {
	var b strings.Builder
	if m.Optional {
		b.WriteString("OPTIONAL ")
	}
	b.WriteString("MATCH ")
	parts := make([]string, len(m.Patterns))
	for i, p := range m.Patterns {
		parts[i] = p.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	if m.Where != nil {
		b.WriteString(" WHERE " + m.Where.exprString())
	}
	return b.String()
}

// ReturnItem is one projection expression with an optional alias.
type ReturnItem struct {
	Expr  Expr
	Alias string // "" means derive from expression text
}

// Name returns the output column name for the item.
func (ri *ReturnItem) Name() string {
	if ri.Alias != "" {
		return ri.Alias
	}
	return ri.Expr.exprString()
}

func (ri *ReturnItem) String() string {
	if ri.Alias != "" {
		return ri.Expr.exprString() + " AS " + quoteIdent(ri.Alias)
	}
	return ri.Expr.exprString()
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// Projection carries the shared shape of WITH and RETURN.
type Projection struct {
	Distinct bool
	Star     bool // RETURN * / WITH *
	Items    []*ReturnItem
	OrderBy  []*SortItem
	Skip     Expr
	Limit    Expr

	// Resolved at first execution (slots.go): Items after the star's
	// variables, the output column names and their slots.
	items    []*ReturnItem
	cols     []string
	colSlots []int
	runs     *access // the key-order walk feeding it grouped rows, nil when none
}

func (p *Projection) projString() string {
	var b strings.Builder
	if p.Distinct {
		b.WriteString("DISTINCT ")
	}
	if p.Star {
		b.WriteString("*")
		if len(p.Items) > 0 {
			b.WriteString(", ")
		}
	}
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.String()
	}
	b.WriteString(strings.Join(parts, ", "))
	if len(p.OrderBy) > 0 {
		keys := make([]string, len(p.OrderBy))
		for i, s := range p.OrderBy {
			keys[i] = s.Expr.exprString()
			if s.Desc {
				keys[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if p.Skip != nil {
		b.WriteString(" SKIP " + p.Skip.exprString())
	}
	if p.Limit != nil {
		b.WriteString(" LIMIT " + p.Limit.exprString())
	}
	return b.String()
}

// WithClause is WITH ... [WHERE ...].
type WithClause struct {
	Projection
	Where Expr
}

func (w *WithClause) clauseString() string {
	s := "WITH " + w.projString()
	if w.Where != nil {
		s += " WHERE " + w.Where.exprString()
	}
	return s
}

// ReturnClause is RETURN ... .
type ReturnClause struct {
	Projection
}

func (r *ReturnClause) clauseString() string { return "RETURN " + r.projString() }

// UnwindClause is UNWIND expr AS var.
type UnwindClause struct {
	Expr  Expr
	Alias string

	slot int // Alias's binding-row slot (slots.go)
}

func (u *UnwindClause) clauseString() string {
	return "UNWIND " + u.Expr.exprString() + " AS " + quoteIdent(u.Alias)
}

// CreateClause is CREATE pattern[, pattern...].
type CreateClause struct {
	Patterns []*PatternPart
}

func (c *CreateClause) clauseString() string {
	parts := make([]string, len(c.Patterns))
	for i, p := range c.Patterns {
		parts[i] = p.String()
	}
	return "CREATE " + strings.Join(parts, ", ")
}

// SetItem is one assignment in a SET clause: either a property assignment
// (target.key = expr) or a label addition (target:Label).
type SetItem struct {
	Target string
	Key    string   // property key; empty for label set
	Labels []string // labels to add; empty for property set
	Value  Expr

	slot int // Target's binding-row slot (slots.go)
}

func (si *SetItem) String() string {
	if len(si.Labels) > 0 {
		quoted := make([]string, len(si.Labels))
		for i, l := range si.Labels {
			quoted[i] = quoteIdent(l)
		}
		return quoteIdent(si.Target) + ":" + strings.Join(quoted, ":")
	}
	return quoteIdent(si.Target) + "." + quoteIdent(si.Key) + " = " + si.Value.exprString()
}

// SetClause is SET item[, item...].
type SetClause struct {
	Items []*SetItem
}

func (s *SetClause) clauseString() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "SET " + strings.Join(parts, ", ")
}

// DeleteClause is [DETACH] DELETE expr[, expr...].
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

func (d *DeleteClause) clauseString() string {
	parts := make([]string, len(d.Exprs))
	for i, e := range d.Exprs {
		parts[i] = e.exprString()
	}
	kw := "DELETE "
	if d.Detach {
		kw = "DETACH DELETE "
	}
	return kw + strings.Join(parts, ", ")
}

// ---------- Expressions ----------

// Expr is an expression AST node.
type Expr interface {
	exprString() string
}

// Literal wraps a constant value.
type Literal struct {
	Value graph.Value
}

func (l *Literal) exprString() string {
	if l.Value.Kind() == graph.KindString {
		// Backslashes first, so escaped quotes aren't double-escaped.
		s := strings.ReplaceAll(l.Value.Str(), `\`, `\\`)
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return l.Value.String()
}

// Variable references a bound name. Span covers the name token (zero when
// built programmatically).
type Variable struct {
	Name string
	Span Span

	slot int // Name's binding-row slot (slots.go)
}

func (v *Variable) exprString() string { return quoteIdent(v.Name) }

// Parameter references an externally supplied value: $name.
type Parameter struct {
	Name string
}

func (p *Parameter) exprString() string { return "$" + p.Name }

// PropAccess is expr.key. KeySpan covers the key token (zero when built
// programmatically).
type PropAccess struct {
	Target  Expr
	Key     string
	KeySpan Span
}

func (p *PropAccess) exprString() string { return p.Target.exprString() + "." + quoteIdent(p.Key) }

// BinaryOp identifies a binary operator.
type BinaryOp uint8

const (
	OpEq BinaryOp = iota
	OpNeq
	OpLt
	OpGt
	OpLte
	OpGte
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpIn
	OpRegex
	OpStartsWith
	OpEndsWith
	OpContains
)

var binOpText = map[BinaryOp]string{
	OpEq: "=", OpNeq: "<>", OpLt: "<", OpGt: ">", OpLte: "<=", OpGte: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR", OpXor: "XOR", OpIn: "IN", OpRegex: "=~",
	OpStartsWith: "STARTS WITH", OpEndsWith: "ENDS WITH", OpContains: "CONTAINS",
}

// Binary is L op R. OpSpan covers the operator token (the first keyword for
// multi-word operators such as STARTS WITH); zero when built
// programmatically.
type Binary struct {
	Op     BinaryOp
	L, R   Expr
	OpSpan Span
}

func (b *Binary) exprString() string {
	return "(" + b.L.exprString() + " " + binOpText[b.Op] + " " + b.R.exprString() + ")"
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

func (n *Not) exprString() string { return "NOT " + n.E.exprString() }

// Neg is unary minus.
type Neg struct {
	E Expr
}

func (n *Neg) exprString() string { return "-" + n.E.exprString() }

// IsNull is `expr IS NULL` (or IS NOT NULL when Negate).
type IsNull struct {
	E      Expr
	Negate bool
}

func (i *IsNull) exprString() string {
	if i.Negate {
		return i.E.exprString() + " IS NOT NULL"
	}
	return i.E.exprString() + " IS NULL"
}

// HasLabels is the label predicate `v:Label1:Label2`.
type HasLabels struct {
	E      Expr
	Labels []string
}

func (h *HasLabels) exprString() string {
	quoted := make([]string, len(h.Labels))
	for i, l := range h.Labels {
		quoted[i] = quoteIdent(l)
	}
	return h.E.exprString() + ":" + strings.Join(quoted, ":")
}

// FuncCall invokes a built-in function; Star marks count(*). NameSpan
// covers the function-name token (zero when built programmatically).
type FuncCall struct {
	Name     string // lowercase
	Distinct bool
	Star     bool
	Args     []Expr
	NameSpan Span
}

func (f *FuncCall) exprString() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.exprString()
	}
	inner := strings.Join(parts, ", ")
	if f.Distinct {
		inner = "DISTINCT " + inner
	}
	return f.Name + "(" + inner + ")"
}

// ListLit is a list literal [e1, e2, ...].
type ListLit struct {
	Elems []Expr
}

func (l *ListLit) exprString() string {
	parts := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		parts[i] = e.exprString()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Index is expr[expr] subscripting.
type Index struct {
	Target Expr
	Sub    Expr
}

func (ix *Index) exprString() string {
	return ix.Target.exprString() + "[" + ix.Sub.exprString() + "]"
}

// PatternPred is a pattern used as a boolean predicate in WHERE, including
// the exists((..)-[..]-(..)) form.
type PatternPred struct {
	Pattern *PatternPart
}

func (p *PatternPred) exprString() string { return p.Pattern.String() }

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []Expr
	Thens   []Expr
	Else    Expr
}

func (c *CaseExpr) exprString() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.exprString())
	}
	for i := range c.Whens {
		b.WriteString(" WHEN " + c.Whens[i].exprString() + " THEN " + c.Thens[i].exprString())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.exprString())
	}
	b.WriteString(" END")
	return b.String()
}

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call (outside nested aggregates' arguments, which
// Cypher forbids anyway).
func ContainsAggregate(e Expr) bool {
	found := false
	visitOutsideAggregates(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && aggregateFuncs[f.Name] {
			found = true
		}
	})
	return found
}

// visitOutsideAggregates calls fn on e and, pre-order, on each of its
// sub-expressions except those inside an aggregate call's arguments or a
// pattern predicate's pattern. A nil expression is a no-op.
func visitOutsideAggregates(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *FuncCall:
		if aggregateFuncs[x.Name] {
			return
		}
		for _, a := range x.Args {
			visitOutsideAggregates(a, fn)
		}
	case *Binary:
		visitOutsideAggregates(x.L, fn)
		visitOutsideAggregates(x.R, fn)
	case *Not:
		visitOutsideAggregates(x.E, fn)
	case *Neg:
		visitOutsideAggregates(x.E, fn)
	case *IsNull:
		visitOutsideAggregates(x.E, fn)
	case *HasLabels:
		visitOutsideAggregates(x.E, fn)
	case *PropAccess:
		visitOutsideAggregates(x.Target, fn)
	case *Index:
		visitOutsideAggregates(x.Target, fn)
		visitOutsideAggregates(x.Sub, fn)
	case *ListLit:
		for _, el := range x.Elems {
			visitOutsideAggregates(el, fn)
		}
	case *CaseExpr:
		visitOutsideAggregates(x.Operand, fn)
		for i := range x.Whens {
			visitOutsideAggregates(x.Whens[i], fn)
			visitOutsideAggregates(x.Thens[i], fn)
		}
		visitOutsideAggregates(x.Else, fn)
	}
}

// aggregateFuncs lists built-in aggregate function names (lowercase).
var aggregateFuncs = map[string]bool{
	"count": true, "collect": true, "sum": true, "avg": true,
	"min": true, "max": true,
}

// IsAggregateFunc reports whether name (lowercase) is a built-in aggregate
// function.
func IsAggregateFunc(name string) bool { return aggregateFuncs[name] }
