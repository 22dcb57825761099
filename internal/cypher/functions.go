package cypher

import (
	"strconv"
	"strings"

	"github.com/graphrules/graphrules/internal/graph"
)

// evalFunc dispatches non-aggregate built-in functions.
func (c *evalCtx) evalFunc(f *FuncCall, row Row) (Datum, error) {
	argN := func(n int) error {
		if len(f.Args) != n {
			return execErrf("%s() expects %d argument(s), got %d", f.Name, n, len(f.Args))
		}
		return nil
	}
	one := func() (Datum, error) {
		if err := argN(1); err != nil {
			return NullDatum, err
		}
		return c.eval(f.Args[0], row)
	}

	switch f.Name {
	case "id":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		switch {
		case d.Node != nil:
			return ValDatum(graph.NewInt(int64(d.Node.ID))), nil
		case d.Edge != nil:
			return ValDatum(graph.NewInt(int64(d.Edge.ID))), nil
		case d.IsNull():
			return NullDatum, nil
		default:
			return NullDatum, execErrf("id() requires a node or relationship")
		}
	case "labels":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		if d.IsNull() {
			return NullDatum, nil
		}
		if d.Node == nil {
			return NullDatum, execErrf("labels() requires a node")
		}
		out := make([]graph.Value, len(d.Node.Labels))
		for i, l := range d.Node.Labels {
			out[i] = graph.NewString(l)
		}
		return ValDatum(graph.NewList(out...)), nil
	case "type":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		if d.IsNull() {
			return NullDatum, nil
		}
		if d.Edge == nil {
			return NullDatum, execErrf("type() requires a relationship")
		}
		return ValDatum(graph.NewString(d.Edge.Type())), nil
	case "keys":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		var props graph.Props
		switch {
		case d.Node != nil:
			props = d.Node.Props
		case d.Edge != nil:
			props = d.Edge.Props
		case d.IsNull():
			return NullDatum, nil
		default:
			return NullDatum, execErrf("keys() requires a node or relationship")
		}
		keys := props.Keys()
		out := make([]graph.Value, len(keys))
		for i, k := range keys {
			out[i] = graph.NewString(k)
		}
		return ValDatum(graph.NewList(out...)), nil
	case "startnode", "endnode":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		if d.IsNull() {
			return NullDatum, nil
		}
		if d.Edge == nil {
			return NullDatum, execErrf("%s() requires a relationship", f.Name)
		}
		id := d.Edge.From
		if f.Name == "endnode" {
			id = d.Edge.To
		}
		return NodeDatum(c.g.Node(id)), nil
	case "exists":
		// exists(n.prop): true when the property is present.
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		return ValDatum(graph.NewBool(!d.IsNull())), nil
	case "size", "length":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		switch v.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindList:
			return ValDatum(graph.NewInt(int64(len(v.List())))), nil
		case graph.KindString:
			return ValDatum(graph.NewInt(int64(len(v.Str())))), nil
		default:
			return NullDatum, execErrf("%s() requires a list or string, got %s", f.Name, v.Kind())
		}
	case "head", "last":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		if v.IsNull() {
			return NullDatum, nil
		}
		if v.Kind() != graph.KindList {
			return NullDatum, execErrf("%s() requires a list", f.Name)
		}
		lst := v.List()
		if len(lst) == 0 {
			return NullDatum, nil
		}
		if f.Name == "head" {
			return ValDatum(lst[0]), nil
		}
		return ValDatum(lst[len(lst)-1]), nil
	case "tostring":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		if v.IsNull() {
			return NullDatum, nil
		}
		return ValDatum(graph.NewString(v.Display())), nil
	case "tointeger", "toint":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		switch v.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindInt:
			return ValDatum(v), nil
		case graph.KindFloat:
			return ValDatum(graph.NewInt(int64(v.Float()))), nil
		case graph.KindString:
			if n, err := strconv.ParseInt(strings.TrimSpace(v.Str()), 10, 64); err == nil {
				return ValDatum(graph.NewInt(n)), nil
			}
			if fl, err := strconv.ParseFloat(strings.TrimSpace(v.Str()), 64); err == nil {
				return ValDatum(graph.NewInt(int64(fl))), nil
			}
			return NullDatum, nil
		default:
			return NullDatum, nil
		}
	case "tofloat":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		switch v.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindInt:
			return ValDatum(graph.NewFloat(float64(v.Int()))), nil
		case graph.KindFloat:
			return ValDatum(v), nil
		case graph.KindString:
			if fl, err := strconv.ParseFloat(strings.TrimSpace(v.Str()), 64); err == nil {
				return ValDatum(graph.NewFloat(fl)), nil
			}
			return NullDatum, nil
		default:
			return NullDatum, nil
		}
	case "toboolean":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		switch v.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindBool:
			return ValDatum(v), nil
		case graph.KindString:
			switch strings.ToLower(strings.TrimSpace(v.Str())) {
			case "true":
				return ValDatum(graph.NewBool(true)), nil
			case "false":
				return ValDatum(graph.NewBool(false)), nil
			}
			return NullDatum, nil
		default:
			return NullDatum, nil
		}
	case "tolower", "toupper", "trim":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		if v.IsNull() {
			return NullDatum, nil
		}
		if v.Kind() != graph.KindString {
			return NullDatum, execErrf("%s() requires a string", f.Name)
		}
		switch f.Name {
		case "tolower":
			return ValDatum(graph.NewString(strings.ToLower(v.Str()))), nil
		case "toupper":
			return ValDatum(graph.NewString(strings.ToUpper(v.Str()))), nil
		default:
			return ValDatum(graph.NewString(strings.TrimSpace(v.Str()))), nil
		}
	case "substring":
		if len(f.Args) != 2 && len(f.Args) != 3 {
			return NullDatum, execErrf("substring() expects 2 or 3 arguments")
		}
		sd, err := c.eval(f.Args[0], row)
		if err != nil {
			return NullDatum, err
		}
		fromD, err := c.eval(f.Args[1], row)
		if err != nil {
			return NullDatum, err
		}
		sv, fv := sd.Scalar(), fromD.Scalar()
		if sv.IsNull() || fv.IsNull() {
			return NullDatum, nil
		}
		if sv.Kind() != graph.KindString || fv.Kind() != graph.KindInt {
			return NullDatum, execErrf("substring() type error")
		}
		s := sv.Str()
		from := int(fv.Int())
		if from < 0 || from > len(s) {
			return NullDatum, execErrf("substring() start out of range")
		}
		end := len(s)
		if len(f.Args) == 3 {
			ld, err := c.eval(f.Args[2], row)
			if err != nil {
				return NullDatum, err
			}
			lv := ld.Scalar()
			if lv.IsNull() {
				return NullDatum, nil
			}
			if lv.Kind() != graph.KindInt {
				return NullDatum, execErrf("substring() type error")
			}
			end = from + int(lv.Int())
			if end > len(s) {
				end = len(s)
			}
		}
		return ValDatum(graph.NewString(s[from:end])), nil
	case "split":
		if err := argN(2); err != nil {
			return NullDatum, err
		}
		sd, err := c.eval(f.Args[0], row)
		if err != nil {
			return NullDatum, err
		}
		dd, err := c.eval(f.Args[1], row)
		if err != nil {
			return NullDatum, err
		}
		sv, dv := sd.Scalar(), dd.Scalar()
		if sv.IsNull() || dv.IsNull() {
			return NullDatum, nil
		}
		if sv.Kind() != graph.KindString || dv.Kind() != graph.KindString {
			return NullDatum, execErrf("split() requires strings")
		}
		parts := strings.Split(sv.Str(), dv.Str())
		out := make([]graph.Value, len(parts))
		for i, p := range parts {
			out[i] = graph.NewString(p)
		}
		return ValDatum(graph.NewList(out...)), nil
	case "abs":
		d, err := one()
		if err != nil {
			return NullDatum, err
		}
		v := d.Scalar()
		switch v.Kind() {
		case graph.KindNull:
			return NullDatum, nil
		case graph.KindInt:
			if v.Int() < 0 {
				return ValDatum(graph.NewInt(-v.Int())), nil
			}
			return ValDatum(v), nil
		case graph.KindFloat:
			if v.Float() < 0 {
				return ValDatum(graph.NewFloat(-v.Float())), nil
			}
			return ValDatum(v), nil
		default:
			return NullDatum, execErrf("abs() requires a number")
		}
	case "coalesce":
		for _, a := range f.Args {
			d, err := c.eval(a, row)
			if err != nil {
				return NullDatum, err
			}
			if !d.IsNull() {
				return d, nil
			}
		}
		return NullDatum, nil
	case "range":
		if len(f.Args) != 2 && len(f.Args) != 3 {
			return NullDatum, execErrf("range() expects 2 or 3 arguments")
		}
		vals := make([]int64, 0, 3)
		for _, a := range f.Args {
			d, err := c.eval(a, row)
			if err != nil {
				return NullDatum, err
			}
			v := d.Scalar()
			if v.Kind() != graph.KindInt {
				return NullDatum, execErrf("range() requires integers")
			}
			vals = append(vals, v.Int())
		}
		step := int64(1)
		if len(vals) == 3 {
			step = vals[2]
		}
		if step == 0 {
			return NullDatum, execErrf("range() step must not be zero")
		}
		var out []graph.Value
		if step > 0 {
			for i := vals[0]; i <= vals[1]; i += step {
				out = append(out, graph.NewInt(i))
			}
		} else {
			for i := vals[0]; i >= vals[1]; i += step {
				out = append(out, graph.NewInt(i))
			}
		}
		return ValDatum(graph.NewList(out...)), nil
	default:
		if fn, ok := testFuncs[f.Name]; ok {
			d, err := one()
			if err != nil {
				return NullDatum, err
			}
			return fn(d)
		}
		return NullDatum, execErrf("unknown function %s()", f.Name)
	}
}

// testFuncs lets in-package tests register extra scalar functions — the
// fault-injection hook the governor's panic-recovery regression tests use
// to detonate a panic deep inside evaluation. Empty in production;
// consulted only after every built-in misses.
var testFuncs map[string]func(d Datum) (Datum, error)

// aggState accumulates one aggregate function over the rows of a group.
type aggState struct {
	fn       *FuncCall
	bud      *budget // memory budget charged per retained element; nil ungoverned
	count    int64
	sumI     int64
	sumF     float64
	sawFloat bool
	sawVal   bool
	minV     graph.Value
	maxV     graph.Value
	items    []graph.Value
	distinct map[string]bool
}

func newAggState(fn *FuncCall) *aggState {
	st := &aggState{fn: fn}
	if fn.Distinct {
		st.distinct = map[string]bool{}
	}
	return st
}

// add feeds one input row into the aggregate.
func (st *aggState) add(c *evalCtx, row Row) error {
	st.bud = c.bud()
	if st.fn.Star { // count(*)
		st.count++
		return nil
	}
	if len(st.fn.Args) != 1 {
		return execErrf("%s() expects 1 argument", st.fn.Name)
	}
	d, err := c.eval(st.fn.Args[0], row)
	if err != nil {
		return err
	}
	if d.IsNull() {
		return nil // aggregates skip nulls
	}
	return st.addValue(d.Scalar())
}

// addValue feeds one already-evaluated non-null value into the aggregate.
func (st *aggState) addValue(v graph.Value) error {
	if st.distinct != nil {
		h := v.Hashable()
		if st.distinct[h] {
			return nil
		}
		st.distinct[h] = true
		if err := st.bud.chargeMem(aggStateBytes); err != nil {
			return err
		}
	}
	st.count++
	st.sawVal = true
	switch st.fn.Name {
	case "collect":
		if st.distinct == nil { // DISTINCT already charged its map entry
			if err := st.bud.chargeMem(aggStateBytes); err != nil {
				return err
			}
		}
		st.items = append(st.items, v)
	case "sum", "avg":
		f, ok := v.AsFloat()
		if !ok {
			return execErrf("%s() requires numeric input, got %s", st.fn.Name, v.Kind())
		}
		st.sumF += f
		if v.Kind() == graph.KindFloat {
			st.sawFloat = true
		} else {
			st.sumI += v.Int()
		}
	case "min":
		if st.minV.IsNull() {
			st.minV = v
		} else if cv, ok := v.Compare(st.minV); ok && cv < 0 {
			st.minV = v
		}
	case "max":
		if st.maxV.IsNull() {
			st.maxV = v
		} else if cv, ok := v.Compare(st.maxV); ok && cv > 0 {
			st.maxV = v
		}
	}
	return nil
}

// result produces the aggregate's final value.
func (st *aggState) result() Datum {
	switch st.fn.Name {
	case "count":
		return ValDatum(graph.NewInt(st.count))
	case "collect":
		return ValDatum(graph.NewList(st.items...))
	case "sum":
		if st.sawFloat {
			return ValDatum(graph.NewFloat(st.sumF))
		}
		return ValDatum(graph.NewInt(st.sumI))
	case "avg":
		if !st.sawVal {
			return NullDatum
		}
		return ValDatum(graph.NewFloat(st.sumF / float64(st.count)))
	case "min":
		return ValDatum(st.minV)
	case "max":
		return ValDatum(st.maxV)
	default:
		return NullDatum
	}
}

// collectAggregates gathers the aggregate FuncCall nodes inside an
// expression, in deterministic order.
func collectAggregates(e Expr, out *[]*FuncCall) {
	switch x := e.(type) {
	case nil:
		return
	case *FuncCall:
		if aggregateFuncs[x.Name] {
			*out = append(*out, x)
			return // nested aggregates are illegal; don't descend
		}
		for _, a := range x.Args {
			collectAggregates(a, out)
		}
	case *Binary:
		collectAggregates(x.L, out)
		collectAggregates(x.R, out)
	case *Not:
		collectAggregates(x.E, out)
	case *Neg:
		collectAggregates(x.E, out)
	case *IsNull:
		collectAggregates(x.E, out)
	case *HasLabels:
		collectAggregates(x.E, out)
	case *PropAccess:
		collectAggregates(x.Target, out)
	case *Index:
		collectAggregates(x.Target, out)
		collectAggregates(x.Sub, out)
	case *ListLit:
		for _, el := range x.Elems {
			collectAggregates(el, out)
		}
	case *CaseExpr:
		collectAggregates(x.Operand, out)
		for i := range x.Whens {
			collectAggregates(x.Whens[i], out)
			collectAggregates(x.Thens[i], out)
		}
		collectAggregates(x.Else, out)
	}
}
