package cypher

import (
	"slices"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// This file is the one place the engine decides which predicates an index
// can serve. The parser classifies each MATCH clause once (Sargs): inline
// property-map entries and top-level WHERE conjuncts `v.key op slot`, op
// one of =, IN, <, <=, >, >=, STARTS WITH, slot a literal, literal list or
// $parameter. Each run binds the slots (bindSargs) and one chooser per
// anchor kind picks the seek for the matcher and Explain alike, so the two
// cannot disagree; the planner ranks anchors by which Sargs apply.
//
// A seek only narrows the anchor candidates — every candidate is re-checked
// by the pattern and the full WHERE — and returns a subsequence of the
// scan's order, so rows and their order are identical with and without
// pushdown; a slot whose value is missing, null or not a bool, number or
// string is not seekable and the anchor scans. The one anchor that walks
// in another order is keyOrder's, which the query's shape alone selects.
// Soundness needs each seek to cover every value its predicate accepts:
// equality and IN probe sort keys, which exactly the Equal values share
// (1 = 1.0), and range bounds compare sort keys, which order values as
// Compare does.

// Sort-key kind-band fences (see graph.Value.SortKey): every bool key lies
// in ["0:", "1:"), numerics in ["1:", "2:"), strings in ["2:", "3:").
// Clamping the open side of an interval to the slot's band keeps e.g.
// `a.x > 5` from sweeping in every string-valued node.
const (
	bandBool    = "0:"
	bandNumeric = "1:"
	bandString  = "2:"
	bandList    = "3:"
)

// Sarg is one index-eligible predicate of a MATCH clause, normalised so the
// property is on the left: Var.Key Op slot. The slot is the parameter
// $Param when Param is set, else the literal Value (a list for OpIn).
type Sarg struct {
	Var   string
	Key   string
	Op    BinaryOp // OpEq, OpIn, OpLt, OpLte, OpGt, OpGte or OpStartsWith
	Param string
	Value graph.Value
	// Src is the WHERE conjunct the Sarg came from; nil for an inline
	// property, which constrains only the pattern element whose property
	// map holds inline under Key.
	Src    *Binary
	inline Expr
	term   string // the predicate as written, e.g. "= $n", "IN [1, 2]"
}

// Sargs classifies a MATCH clause's index-eligible predicates: its inline
// property maps in pattern order (keys sorted), then its WHERE conjuncts in
// source order. A literal slot that can never seek (null, a list compared
// with =, a non-string prefix) is left out; a parameter slot is checked
// when a run binds it.
func Sargs(m *MatchClause) []Sarg {
	var out []Sarg
	inline := func(v string, props map[string]Expr) {
		for _, k := range sortedPropKeys(props) {
			if s, ok := sargSlot(OpEq, props[k]); ok {
				s.Var, s.Key, s.inline = v, k, props[k]
				out = append(out, s)
			}
		}
	}
	for _, part := range m.Patterns {
		for _, np := range part.Nodes {
			inline(np.Var, np.Props)
		}
		for _, rp := range part.Rels {
			inline(rp.Var, rp.Props)
		}
	}
	var conjs []Expr
	if m.Where != nil {
		splitAnd(m.Where, &conjs)
	}
	for _, c := range conjs {
		b, ok := c.(*Binary)
		if !ok {
			continue
		}
		op, prop, slot := b.Op, b.L, b.R
		if _, ok := b.L.(*PropAccess); !ok {
			if op, ok = mirrorOf[b.Op]; !ok {
				continue
			}
			prop, slot = b.R, b.L
		}
		pa, ok := prop.(*PropAccess)
		if !ok {
			continue
		}
		if v, ok := pa.Target.(*Variable); ok {
			if s, ok := sargSlot(op, slot); ok {
				s.Var, s.Key, s.Src = v.Name, pa.Key, b
				out = append(out, s)
			}
		}
	}
	return out
}

// mirrorOf rewrites `slot op v.key` as `v.key op' slot` for the comparisons
// an index serves; IN and STARTS WITH have no mirror image.
var mirrorOf = map[BinaryOp]BinaryOp{OpEq: OpEq, OpLt: OpGt, OpGt: OpLt, OpLte: OpGte, OpGte: OpLte}

// sargSlot classifies e as the slot of a Sarg with operator op: a
// parameter, or a literal or list of literals that op can seek on.
func sargSlot(op BinaryOp, e Expr) (s Sarg, ok bool) {
	s.Op = op
	switch x := e.(type) {
	case *Parameter:
		s.Param = x.Name
		_, ok = mirrorOf[op]
		ok = ok || op == OpIn || op == OpStartsWith
	case *Literal:
		s.Value = x.Value
		ok = seekable(op, s.Value)
	case *ListLit:
		vs := make([]graph.Value, len(x.Elems))
		for i, el := range x.Elems {
			lit, isLit := el.(*Literal)
			if !isLit {
				return s, false
			}
			vs[i] = lit.Value
		}
		s.Value = graph.NewList(vs...)
		ok = seekable(op, s.Value)
	}
	if ok {
		s.term = binOpText[op] + " " + e.exprString()
	}
	return s, ok
}

// seekable reports whether a slot value can drive an index seek under op:
// a bool, number or string; a string for STARTS WITH; a list of bools,
// numbers and strings for IN. A NaN never is: it equals and orders against
// nothing, yet has a sort key among the numbers.
func seekable(op BinaryOp, v graph.Value) bool {
	switch op {
	case OpIn:
		if v.Kind() != graph.KindList {
			return false
		}
		for _, e := range v.List() {
			if !seekable(OpEq, e) {
				return false
			}
		}
		return true
	case OpStartsWith:
		return v.Kind() == graph.KindString
	}
	_, cmp := mirrorOf[op]
	_, _, ok := kindBand(v.Kind())
	f, _ := v.AsFloat()
	return cmp && ok && f == f
}

// point reports whether the Sarg seeks a point set (= or IN) rather than an
// interval.
func (s *Sarg) point() bool { return s.Op == OpEq || s.Op == OpIn }

// splitAnd flattens a top-level AND tree into its conjuncts.
func splitAnd(e Expr, out *[]Expr) {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		splitAnd(b.L, out)
		splitAnd(b.R, out)
		return
	}
	*out = append(*out, e)
}

// access is a Sarg bound to one run: the point set an equality or IN
// probes, or the interval a range or prefix scans — every range Sarg on one
// variable and key intersected into one. In Explain, which has no
// parameters, a parameter slot stays unbound and carries neither.
type access struct {
	*Sarg
	points         []graph.Value // one value per distinct sort key
	lo, hi         graph.Bound
	loTerm, hiTerm string // the predicates that set each side, e.g. ">= 30"
	unbound        bool
	order          bool // keyOrder's walk: every non-null key, in key order
}

// keyOrder returns, and records on m, the interesting order (System R) a
// query's first clause m provides pr, the clause after it. When m has one
// non-optional part anchored at x with one label, a top-level `x.k IS NOT
// NULL` conjunct and no sargable predicate on x, and pr's only grouping key
// or DISTINCT column is x.k, the anchor walks the (label, k) posting in key
// order and pr groups run by run (pipeline.go), under every setting.
func keyOrder(m *MatchClause, pr *Projection) *access {
	if m == nil || m.Optional || len(m.Patterns) != 1 {
		return nil
	}
	x := m.Patterns[0].Nodes[0]
	key, agg := Expr(nil), false
	for _, it := range pr.items {
		switch {
		case ContainsAggregate(it.Expr):
			agg = true
		case key != nil:
			return nil
		default:
			key = it.Expr
		}
	}
	pa, ok := key.(*PropAccess)
	if !ok || !agg && !pr.Distinct || len(x.Labels) != 1 || pa.Target.exprString() != quoteIdent(x.Var) ||
		slices.ContainsFunc(m.sargs, func(s Sarg) bool { return s.Var == x.Var }) {
		return nil
	}
	var conjs []Expr
	splitAnd(m.Where, &conjs)
	for _, c := range conjs {
		if n, ok := c.(*IsNull); ok && n.Negate && n.E.exprString() == pa.exprString() {
			m.order = &access{Sarg: &Sarg{Var: x.Var, Key: pa.Key, Op: OpNeq /* not a point */}, order: true, loTerm: "IS NOT NULL"}
			m.parts = m.Patterns // the walk is x's anchor
			return m.order
		}
	}
	return nil
}

// String renders the user-level predicates behind the access.
func (a *access) String() string {
	switch {
	case a.loTerm == a.hiTerm || a.hiTerm == "":
		return a.loTerm // a point set or prefix owns both sides
	case a.loTerm == "":
		return a.hiTerm
	}
	return a.loTerm + " AND " + a.hiTerm
}

// accesses returns the clause's index accesses for one run: its key-order
// walk (keyOrder) alone when it has one, else its Sargs bound to params.
func (ex *Executor) accesses(cl *MatchClause, params map[string]graph.Value, explain bool) []access {
	if cl.order != nil && !ex.hashGroups {
		return []access{*cl.order}
	}
	return ex.bindSargs(cl.sargs, params, explain)
}

// bindSargs binds a clause's Sargs to one run's parameters and returns the
// seekable accesses: point sets, then one interval per constrained variable
// and key, each in Sarg order. A Sarg whose slot is missing or not
// seekable is dropped, leaving its anchor to the scan — except under
// explain, where an absent parameter stays as an unbound access so Explain
// can show the seek it enables. The noSeeks hook binds nothing.
func (ex *Executor) bindSargs(sargs []Sarg, params map[string]graph.Value, explain bool) []access {
	if ex.noSeeks {
		return nil
	}
	var points, ranges []access
	for i := range sargs {
		s := &sargs[i]
		v, ok := s.Value, true
		if s.Param != "" {
			v, ok = params[s.Param]
		}
		a := access{Sarg: s, loTerm: s.term, hiTerm: s.term}
		switch {
		case !ok && explain:
			a.unbound = true
		case !ok || !seekable(s.Op, v):
			continue
		case s.point():
			a.points = distinctPoints(s.Op, v)
		default:
			ranges = narrow(ranges, s, v)
			continue
		}
		if s.point() {
			points = append(points, a)
		} else {
			ranges = append(ranges, a)
		}
	}
	return append(points, ranges...)
}

// distinctPoints lists the values an equality or IN probes, one per sort
// key, so a union of equality seeks never yields a candidate twice.
func distinctPoints(op BinaryOp, v graph.Value) []graph.Value {
	if op == OpEq {
		return []graph.Value{v}
	}
	var out []graph.Value
	seen := map[string]bool{}
	for _, e := range v.List() {
		if sk := e.SortKey(); !seen[sk] {
			seen[sk] = true
			out = append(out, e)
		}
	}
	return out
}

// narrow intersects one bound range Sarg into the interval for its variable
// and key. A side's display term belongs to the predicate that constrains
// it directly; the kind-band fence a one-sided comparison puts on its open
// side tightens the interval but claims no term.
func narrow(ranges []access, s *Sarg, v graph.Value) []access {
	lo, hi := boundsFor(s.Op, v)
	var r *access
	for i := range ranges {
		if !ranges[i].unbound && ranges[i].Var == s.Var && ranges[i].Key == s.Key {
			r = &ranges[i]
			break
		}
	}
	if r == nil {
		ranges = append(ranges, access{Sarg: s})
		r = &ranges[len(ranges)-1]
	}
	if loTighter(lo, r.lo) {
		r.lo = lo
		if s.Op == OpGt || s.Op == OpGte || s.Op == OpStartsWith {
			r.loTerm = s.term
		}
	}
	if hiTighter(hi, r.hi) {
		r.hi = hi
		if s.Op == OpLt || s.Op == OpLte || s.Op == OpStartsWith {
			r.hiTerm = s.term
		}
	}
	return ranges
}

// boundsFor turns one seekable range predicate (property on the left) into
// a seek interval, clamping the open side to the value's kind band.
func boundsFor(op BinaryOp, v graph.Value) (lo, hi graph.Bound) {
	bandLo, bandHi, _ := kindBand(v.Kind())
	at := func(strict bool) graph.Bound { return graph.ValueBound(v, !strict) }
	switch op {
	case OpGt:
		return at(true), graph.RawBound(bandHi, false)
	case OpGte:
		return at(false), graph.RawBound(bandHi, false)
	case OpLt:
		return graph.RawBound(bandLo, true), at(true)
	case OpLte:
		return graph.RawBound(bandLo, true), at(false)
	}
	pfx := bandString + v.Str() // OpStartsWith
	return graph.RawBound(pfx, true), prefixSuccessor(pfx, bandList)
}

// kindBand returns the sort-key band fences for a value kind; other kinds
// (lists, nulls) cannot seek.
func kindBand(k graph.Kind) (lo, hi string, ok bool) {
	switch k {
	case graph.KindBool:
		return bandBool, bandNumeric, true
	case graph.KindInt, graph.KindFloat:
		return bandNumeric, bandString, true
	case graph.KindString:
		return bandString, bandList, true
	}
	return "", "", false
}

// prefixSuccessor returns the exclusive upper bound for keys starting with
// pfx: the shortest string greater than every such key. When no successor
// exists inside the band (all 0xff), the band ceiling is the bound.
func prefixSuccessor(pfx, bandCeil string) graph.Bound {
	b := []byte(pfx)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return graph.RawBound(string(b[:i+1]), false)
		}
	}
	return graph.RawBound(bandCeil, false)
}

// loTighter reports whether a is a tighter (higher) lower bound than b. An
// unset bound is loosest.
func loTighter(a, b graph.Bound) bool {
	if !b.Set {
		return true
	}
	if a.SortKey != b.SortKey {
		return a.SortKey > b.SortKey
	}
	return !a.Inclusive && b.Inclusive
}

// hiTighter reports whether a is a tighter (lower) upper bound than b.
func hiTighter(a, b graph.Bound) bool {
	if !b.Set {
		return true
	}
	if a.SortKey != b.SortKey {
		return a.SortKey < b.SortKey
	}
	return !a.Inclusive && b.Inclusive
}

// applies reports whether the Sarg constrains the pattern element with
// the given variable and inline property map. Planner-reversed parts copy
// relationship patterns but share their property maps, so an inline Sarg
// still recognises its element.
func (s *Sarg) applies(v string, props map[string]Expr) bool {
	if s.inline != nil {
		return props[s.Key] == s.inline
	}
	return v != "" && s.Var == v
}

// count is how many items the access yields, summed over its point set or
// taken over its interval by an index's range count; -1 when unbound.
func (a *access) count(rangeCount func(key string, lo, hi graph.Bound) int) int {
	if a.unbound {
		return -1
	}
	if !a.point() {
		return rangeCount(a.Key, a.lo, a.hi)
	}
	n := 0
	for _, v := range a.points {
		b := graph.ValueBound(v, true)
		n += rangeCount(a.Key, b, b)
	}
	return n
}

// nodeCount is how many candidates the access yields under label l, or -1
// when its slot is unbound. A single point probes the equality index it
// will enumerate from.
func (a *access) nodeCount(g *graph.Graph, l string) int {
	if !a.unbound && a.Op == OpEq {
		return len(g.LabelPropNodes(l, a.Key, a.points[0]))
	}
	return a.count(func(k string, lo, hi graph.Bound) int { return g.LabelPropRangeCount(l, k, lo, hi) })
}

// nodes enumerates the access's candidates under label l in label-bucket
// order, an IN as the union of its equality seeks restored to that order;
// a key-order walk enumerates them in key order.
func (a *access) nodes(g *graph.Graph, l string) []*graph.Node {
	switch {
	case a.order:
		return g.LabelPropOrdered(l, a.Key)
	case !a.point():
		return g.LabelPropRange(l, a.Key, a.lo, a.hi)
	case a.Op == OpEq:
		return g.LabelPropNodes(l, a.Key, a.points[0])
	}
	return g.LabelPropIn(l, a.Key, a.points)
}

// edges enumerates the access's edges of type t, in no particular order:
// an edge-derived anchor sorts its endpoints by ID.
func (a *access) edges(g *graph.Graph, t string) []*graph.Edge {
	if !a.point() {
		return g.TypePropRange(t, a.Key, a.lo, a.hi)
	}
	var out []*graph.Edge
	for _, v := range a.points {
		out = append(out, g.TypePropEdges(t, a.Key, v)...)
	}
	return out
}

// nodeSeek is chooseNodeSeek's verdict: the access and label to seek, and
// the candidate count (-1 when the slot is unbound).
type nodeSeek struct {
	*access
	label string
	est   int
}

// chooseNodeSeek picks the index access with the fewest candidates for a
// labeled anchor pattern: over every applicable access (point sets before
// intervals) and every label, the first smallest wins; an unbound slot is
// taken only when nothing countable applies. ok is false when no access
// applies.
func chooseNodeSeek(g *graph.Graph, np *NodePattern, accs []access) (best nodeSeek, ok bool) {
	for i := range accs {
		a := &accs[i]
		if !a.applies(np.Var, np.Props) {
			continue
		}
		for _, l := range np.Labels {
			if c := a.nodeCount(g, l); !ok || (c >= 0 && (best.est < 0 || c < best.est)) {
				best, ok = nodeSeek{access: a, label: l, est: c}, true
			}
		}
	}
	return best, ok
}

// info describes the seek for ExecStats and Explain.
func (s nodeSeek) info(v string) SeekInfo {
	kind := NodeRangeSeek
	if s.order {
		kind = NodeByIndexOrder
	} else if s.point() {
		kind = NodeIndexSeek
	}
	return SeekInfo{Kind: kind, Var: v, Label: s.label, Key: s.Key, Bounds: s.String(), Est: s.est}
}

// edgeSeek is chooseEdgeSeek's verdict for a part's first relationship: the
// access to seek per admissible type, and the endpoint estimate (-1 when a
// slot is unbound).
type edgeSeek struct {
	rel   *RelPattern
	picks []*access // aligned with rel.Types
	est   int
}

// edgeSeekRel returns the part's first relationship when an edge seek can
// anchor on it: typed and single-hop.
func edgeSeekRel(part *PatternPart) (*RelPattern, bool) {
	if len(part.Rels) == 0 || part.Rels[0].IsVarLength() || len(part.Rels[0].Types) == 0 {
		return nil, false
	}
	return part.Rels[0], true
}

// chooseEdgeSeek picks, per type of the part's edgeSeekRel, the applicable
// access with the fewest edges. It declines when no access applies or when
// the endpoints derived (both ends of an undirected relationship) would
// not beat a scan of every node.
func chooseEdgeSeek(g *graph.Graph, part *PatternPart, accs []access) (s edgeSeek, ok bool) {
	if s.rel, ok = edgeSeekRel(part); !ok {
		return s, false
	}
	for _, t := range s.rel.Types {
		var best *access
		bestN := 0
		for i := range accs {
			a := &accs[i]
			if !a.applies(s.rel.Var, s.rel.Props) {
				continue
			}
			c := a.count(func(k string, lo, hi graph.Bound) int { return g.TypePropRangeCount(t, k, lo, hi) })
			if best == nil || (c >= 0 && (bestN < 0 || c < bestN)) {
				best, bestN = a, c
			}
		}
		if best == nil {
			return s, false
		}
		s.picks = append(s.picks, best)
		if bestN < 0 || s.est < 0 {
			s.est = -1
		} else {
			s.est += bestN
		}
	}
	if s.rel.Direction == DirBoth && s.est > 0 {
		s.est *= 2
	}
	return s, s.est < g.NodeCount()
}

// info describes the seek for ExecStats and Explain by its first type's
// pick.
func (s edgeSeek) info() SeekInfo {
	return SeekInfo{Kind: EdgeIndexSeek, Var: s.rel.Var, Label: strings.Join(s.rel.Types, "|"),
		Key: s.picks[0].Key, Bounds: s.picks[0].String(), Est: s.est}
}
