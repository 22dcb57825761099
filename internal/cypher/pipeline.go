package cypher

// Execution pipeline: every query — read or write, one clause or many,
// through Run or a Session — runs as one chain of push operators compiled
// from its clauses. The matcher already hands out its matches by callback,
// so an operator is a push function plus a flush:
//
//	Match        matchAll per input row, the clause's WHERE applied to each
//	             match; OPTIONAL pads a row with no match with NULLs
//	Unwind       one row per list element
//	Project      WITH and RETURN items; RETURN's rows go out as []Datum
//	Aggregate    grouped aggregation; no grouping keys is one state
//	Distinct     streams first occurrences, so row order is unchanged
//	Sort         buffers, sorts stably at flush
//	Skip/Limit   a reached LIMIT stops its upstream (errStopMatching)
//	Filter       WITH ... WHERE, on the rows WITH binds
//	Barrier      CREATE/SET/DELETE: keeps every input row, runs the clause's
//	             batch function at flush, then pushes its output
//	Sink         charges each row and hands it to the run's emit: Run
//	             appends it to Result.Rows, a Session's Cursor yields it
//
// push receives one row. A binding row is a slice with one slot per
// variable name of the query (slots.go); one handed downstream is a
// transient view: an operator that keeps it clones it. flush is called
// once, after the last push; an operator pushes whatever it buffered, then
// flushes downstream, so a LIMIT that stopped its upstream still lets
// every later operator finish. Sort, Aggregate and Barrier are the only
// operators where rows wait; everything else streams.
//
// The budget is charged in one place, keep: a row is charged when an
// operator keeps it (barrier, sort buffer, new DISTINCT key, new group) or
// when the sink emits it. Rows that only pass through are free; collect()
// charges its elements in aggState. What bounds a pass-through product is
// the deadline and cancellation, polled (pollCtx) by the matcher per
// candidate, by Unwind per element and by emitAll per released row.

import (
	"errors"
	"slices"
	"sort"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// stage is a push operator over binding rows.
type stage struct {
	push  func(Row) error
	flush func() error
}

// vstage is a push operator over projected rows, in column order.
type vstage struct {
	push  func([]Datum) error
	flush func() error
}

// pipeline is one execution's compile and run state.
type pipeline struct {
	ex    *Executor
	ctx   *evalCtx
	m     *matcher
	res   *Result
	width int // slots per binding row
	start time.Time
	done  []time.Duration // per clause: time until its operator flushed
}

// runPipeline compiles q and drives it: the head receives the single empty
// input row and is then flushed. Result rows go to emit; res.Columns is
// set before the first row.
func (ex *Executor) runPipeline(ctx *evalCtx, q *Query, res *Result, emit func([]Datum) error) error {
	p := &pipeline{ex: ex, ctx: ctx, m: ctx.matcher, res: res, start: time.Now(), done: make([]time.Duration, len(q.Clauses))}
	defer p.timings(q)
	head, err := p.compile(q, emit)
	if err != nil {
		return err
	}
	if err := p.checkpoint(); err != nil {
		return err
	}
	if err := head.push(newRow(p.width)); err != nil && !errors.Is(err, errStopMatching) {
		return err
	}
	return head.flush()
}

// timings records one ClauseTiming per clause, in order. Duration is the
// time from the start of execution until the clause's operator flushed —
// the whole run for a clause that never flushed because the query failed.
func (p *pipeline) timings(q *Query) {
	total := time.Since(p.start)
	for i, cl := range q.Clauses {
		d := p.done[i]
		if d == 0 {
			d = total
		}
		p.res.Exec.Clauses = append(p.res.Exec.Clauses, ClauseTiming{Clause: clauseName(cl), Duration: d})
	}
}

// checkpoint reports cancellation or an expired deadline between operators;
// the matcher polls the same inside its scans.
func (p *pipeline) checkpoint() error {
	if p.m.cctx != nil {
		if err := p.m.cctx.Err(); err != nil {
			return err
		}
	}
	return p.m.bud.checkDeadline()
}

// keep charges one row of width bindings (bound variables or projected
// columns) that an operator keeps or a sink emits: the pipeline's one
// budget charge.
func (p *pipeline) keep(width int) error {
	if err := p.m.bud.chargeRows(1); err != nil {
		return err
	}
	return p.m.bud.chargeMem(rowBytes(width))
}

// emitAll pushes rows downstream in order until one is refused with a stop
// (a LIMIT downstream is satisfied), then flushes downstream. It polls
// cancellation and the deadline on the matcher's stride.
func emitAll[T any](p *pipeline, rows []T, push func(T) error, flush func() error) error {
	for _, r := range rows {
		if err := p.m.pollCtx(); err != nil {
			return err
		}
		if err := push(r); err != nil {
			if errors.Is(err, errStopMatching) {
				break
			}
			return err
		}
	}
	return flush()
}

// compile builds the operator chain for q, resolving its slots and scope
// first (slots.go) so RETURN * and the planner know the variables bound
// before each clause without waiting for a row. Each clause's operator
// runs inside the previous one's push, so the clause count bounds the
// run's stack depth; it is capped like expression depth.
func (p *pipeline) compile(q *Query, emit func([]Datum) error) (stage, error) {
	if len(q.Clauses) > maxExprDepth {
		return stage{}, execErrf("query has %d clauses; at most %d are supported", len(q.Clauses), maxExprDepth)
	}
	q.resolve()
	p.width = q.width
	builders := make([]func(next stage) stage, len(q.Clauses))
	for i, clause := range q.Clauses {
		if i > 0 {
			if _, ok := q.Clauses[i-1].(*ReturnClause); ok {
				return stage{}, execErrf("RETURN must be the final clause")
			}
		}
		switch cl := clause.(type) {
		case *MatchClause:
			builders[i] = p.match(cl)
		case *UnwindClause:
			builders[i] = p.unwind(cl)
		case *WithClause:
			build, err := p.projection(&cl.Projection, true)
			if err != nil {
				return stage{}, err
			}
			builders[i] = func(next stage) stage { return build(p.bind(cl.colSlots, cl.Where, next)) }
		case *ReturnClause:
			build, err := p.projection(&cl.Projection, false)
			if err != nil {
				return stage{}, err
			}
			p.res.Columns = cl.cols
			builders[i] = func(stage) stage { return build(p.sink(i, emit)) }
		case *CreateClause:
			builders[i] = p.barrier(func(in []Row) ([]Row, error) { return p.ex.execCreate(p.ctx, cl, in, &p.res.Stats) })
		case *SetClause:
			builders[i] = p.barrier(func(in []Row) ([]Row, error) { return p.ex.execSet(p.ctx, cl, in, &p.res.Stats) })
		case *DeleteClause:
			builders[i] = p.barrier(func(in []Row) ([]Row, error) { return p.ex.execDelete(p.ctx, cl, in, &p.res.Stats) })
		default:
			return stage{}, execErrf("unsupported clause at position %d", i)
		}
	}
	next := stage{push: func(Row) error { return nil }, flush: func() error { return nil }}
	for i := len(builders) - 1; i >= 0; i-- {
		next = builders[i](p.timed(i, next))
	}
	return next, nil
}

// timed wraps clause i's downstream so that flushing it records the
// clause's timing first.
func (p *pipeline) timed(i int, next stage) stage {
	return stage{push: next.push, flush: func() error {
		p.done[i] = time.Since(p.start)
		return next.flush()
	}}
}

// match is the Match operator. It runs the clause's planned parts
// (plan.go) with its index accesses bound to this run's parameters; they
// are installed on the matcher only while its own matchAll runs: a
// downstream MATCH installs its own inside the callback and restores these
// on return.
func (p *pipeline) match(cl *MatchClause) func(stage) stage {
	return func(next stage) stage {
		m := p.m
		acc := p.ex.accesses(cl, p.ctx.params, false)
		return stage{
			push: func(row Row) error {
				p.res.Stats.RowsExamined++
				outer := m.acc
				m.acc = acc
				matched := false
				err := m.matchAll(cl.parts, row, func(r Row) error {
					if cl.Where != nil {
						t, err := p.ctx.evalBool(cl.Where, r)
						if err != nil || t != triTrue {
							return err
						}
					}
					matched = true
					return next.push(r)
				})
				m.acc = outer
				if err != nil || matched || !cl.Optional {
					return err
				}
				return next.push(nullPadded(row, cl.Patterns))
			},
			flush: next.flush,
		}
	}
}

// nullPadded copies row with every variable of parts it does not bind set
// to NULL: OPTIONAL MATCH's row when nothing matched.
func nullPadded(row Row, parts []*PatternPart) Row {
	r := row.clone()
	pad := func(name string, slot int) {
		if name != "" && !r[slot].bound() {
			r[slot] = NullDatum
		}
	}
	for _, part := range parts {
		for _, n := range part.Nodes {
			pad(n.Var, n.slot)
		}
		for _, rel := range part.Rels {
			pad(rel.Var, rel.slot)
		}
	}
	return r
}

// unwind is the Unwind operator: a list yields one row per element, NULL
// none, any other value itself. The alias's slot is set in place for each
// push and restored afterwards. Its rows are not charged, so it polls
// cancellation and the deadline per element, as the matcher does per
// candidate: nested UNWINDs feeding count(*) are bounded by the deadline.
func (p *pipeline) unwind(cl *UnwindClause) func(stage) stage {
	return func(next stage) stage {
		return stage{
			push: func(row Row) error {
				d, err := p.ctx.eval(cl.Expr, row)
				if err != nil {
					return err
				}
				v := d.Scalar()
				elems := []graph.Value{v}
				switch v.Kind() {
				case graph.KindNull:
					return nil
				case graph.KindList:
					elems = v.List()
				}
				prev := row[cl.slot]
				defer func() { row[cl.slot] = prev }()
				for _, e := range elems {
					if err := p.m.pollCtx(); err != nil {
						return err
					}
					row[cl.slot] = ValDatum(e)
					if err := next.push(row); err != nil {
						return err
					}
				}
				return nil
			},
			flush: next.flush,
		}
	}
}

// barrier is the eager barrier in front of a write: it keeps every input
// row, runs the clause's batch function once upstream has finished, then
// pushes the batch's output, so writes keep clause-at-a-time semantics.
func (p *pipeline) barrier(run func([]Row) ([]Row, error)) func(stage) stage {
	return func(next stage) stage {
		var in []Row
		return stage{
			push: func(r Row) error {
				if err := p.keep(r.width()); err != nil {
					return err
				}
				in = append(in, r.clone())
				return nil
			},
			flush: func() error {
				if err := p.checkpoint(); err != nil {
					return err
				}
				out, err := run(in)
				if err != nil {
					return err
				}
				return emitAll(p, out, next.push, next.flush)
			},
		}
	}
}

// projection compiles a WITH/RETURN projection over its resolved items
// (slots.go). SKIP and LIMIT are evaluated here, once. build chains Project
// or Aggregate, then Distinct, Sort and Skip/Limit as the projection asks,
// into next. Fed by a key-order walk, Aggregate groups run by run and
// stands in for Distinct, whose keys are groups; transient says next keeps
// no row (WITH's binding).
func (p *pipeline) projection(pr *Projection, transient bool) (build func(next vstage) stage, err error) {
	items := pr.items
	if len(items) == 0 {
		return nil, execErrf("projection requires at least one item")
	}
	skip, limit := 0, -1
	if pr.Skip != nil {
		if skip, err = p.evalPosInt(pr.Skip, "SKIP"); err != nil {
			return nil, err
		}
	}
	if pr.Limit != nil {
		if limit, err = p.evalPosInt(pr.Limit, "LIMIT"); err != nil {
			return nil, err
		}
	}
	runs := pr.runs != nil && !p.ex.hashGroups
	return func(next vstage) stage {
		if pr.Skip != nil || pr.Limit != nil {
			next = page(skip, limit, next)
		}
		if len(pr.OrderBy) > 0 {
			next = p.sort(pr.OrderBy, pr.colSlots, next)
		}
		if pr.Distinct && !runs {
			next = p.distinct(next)
		}
		for _, it := range items {
			if runs || ContainsAggregate(it.Expr) {
				return p.aggregateBy(items, next, runs, transient && len(pr.OrderBy) == 0)
			}
		}
		return p.project(items, next)
	}, nil
}

// project is the Project operator: it evaluates the items on each row.
func (p *pipeline) project(items []*ReturnItem, next vstage) stage {
	return stage{
		push: func(r Row) error {
			vals := make([]Datum, len(items))
			for i, it := range items {
				d, err := p.ctx.eval(it.Expr, r)
				if err != nil {
					return err
				}
				vals[i] = d
			}
			return next.push(vals)
		},
		flush: next.flush,
	}
}

// aggregate is the Aggregate operator. Items without an aggregate are the
// grouping keys; groups are emitted at flush in first-seen order (Cypher
// leaves it unspecified). With no grouping keys there is exactly one group,
// even over no input, and a row costs only its aggregate updates. A row of
// an existing group allocates nothing: its key is encoded into one reused
// buffer, and every group's items and aggregate states live in slabs
// shared by all groups. A new group costs its key string, plus a clone of
// its first row only when a non-key item reads the row outside its
// aggregate calls.
func (p *pipeline) aggregate(items []*ReturnItem, next vstage) stage {
	return p.aggregateBy(items, next, false, false)
}

// aggregateBy is aggregate, or with runs set, Aggregate over input grouped
// by its one key (keyOrder): a key that differs from the previous row's,
// compared through two reused buffers, sends the open group downstream at
// once, in key order, so the slabs hold one group. No row then allocates,
// at a group boundary neither, when the aggregates are counts and next is
// transient (keeps no row).
func (p *pipeline) aggregateBy(items []*ReturnItem, next vstage, runs, transient bool) stage {
	isKey := make([]bool, len(items))
	keys, readsRow := 0, false
	var calls []*FuncCall
	for i, it := range items {
		if !ContainsAggregate(it.Expr) {
			isKey[i] = true
			keys++
			continue
		}
		visitOutsideAggregates(it.Expr, func(e Expr) {
			switch x := e.(type) {
			case *FuncCall:
				if aggregateFuncs[x.Name] {
					calls = append(calls, x)
				}
			case *Variable, *PatternPred:
				readsRow = true
			}
		})
	}
	width, nc := len(items), len(calls)
	var vals []Datum      // group g's items are vals[g*width:][:width]; aggregate items are filled when it leaves
	var states []aggState // group g's aggregate states are states[g*nc:][:nc]
	var firsts []Row      // group g's first input row, kept only when readsRow
	groups := 0
	index := map[string]int{}
	scratch := make([]Datum, width)
	var kb, prev []byte
	newGroup := func(first Row) int {
		vals = append(vals, scratch...)
		for _, fc := range calls {
			states = append(states, newAggState(fc))
		}
		if readsRow {
			firsts = append(firsts, first.clone())
		}
		groups++
		return groups - 1
	}
	results := make(map[*FuncCall]Datum, nc)
	first := newRow(p.width)
	call := make([]int, width) // the state whose result item i is, else -1
	for i, it := range items {
		call[i] = slices.IndexFunc(calls, func(fc *FuncCall) bool { return Expr(fc) == it.Expr })
	}
	// row fills group g's aggregate items: one call is its state's result,
	// any other expression reads its calls' results on the first row.
	row := func(g int) ([]Datum, error) {
		out, st := vals[g*width:(g+1)*width:(g+1)*width], states[g*nc:(g+1)*nc]
		if readsRow {
			first = firsts[g]
		}
		for i, it := range items {
			if j := call[i]; j >= 0 {
				out[i] = st[j].result()
			} else if !isKey[i] {
				for _, s := range st {
					results[s.fn] = s.result()
				}
				p.ctx.aggResults = results
				d, err := p.ctx.eval(it.Expr, first)
				if p.ctx.aggResults = nil; err != nil {
					return nil, err
				}
				out[i] = d
			}
		}
		return out, nil
	}
	// closeRun pushes the open run's group and empties the slabs.
	closeRun := func() error {
		out, err := row(0)
		groups, vals, states, firsts = 0, vals[:0], states[:0], firsts[:0]
		if err != nil {
			return err
		}
		if !transient {
			out = slices.Clone(out)
		}
		return next.push(out)
	}
	return stage{
		push: func(r Row) error {
			g := 0
			if keys == 0 && groups == 0 {
				newGroup(r)
			} else if keys > 0 {
				kb = kb[:0]
				for i, it := range items {
					if !isKey[i] {
						continue
					}
					d, err := p.ctx.eval(it.Expr, r)
					if err != nil {
						return err
					}
					scratch[i] = d
					kb = d.appendHashable(kb)
				}
				var ok bool
				if runs {
					if groups > 0 && string(kb) != string(prev) {
						if err := closeRun(); err != nil {
							return err
						}
					}
					if groups == 0 {
						kb, prev = prev, kb
						newGroup(r)
					}
				} else if g, ok = index[string(kb)]; !ok {
					if err := p.keep(width); err != nil {
						return err
					}
					g = newGroup(r)
					index[string(kb)] = g
				}
			}
			for i := g * nc; i < (g+1)*nc; i++ {
				if err := states[i].add(p.ctx, r); err != nil {
					return err
				}
			}
			return nil
		},
		flush: func() error {
			if keys == 0 && groups == 0 {
				newGroup(newRow(p.width))
			}
			out := make([][]Datum, groups)
			for g := range out {
				var err error
				if out[g], err = row(g); err != nil {
					return err
				}
			}
			return emitAll(p, out, next.push, next.flush)
		},
	}
}

// distinct is the Distinct operator: it passes each row whose values it
// has not seen before and drops repeats. A repeat allocates nothing.
func (p *pipeline) distinct(next vstage) vstage {
	seen := map[string]bool{}
	var kb []byte
	return vstage{
		push: func(vals []Datum) error {
			kb = kb[:0]
			for _, d := range vals {
				kb = d.appendHashable(kb)
			}
			if seen[string(kb)] {
				return nil
			}
			if err := p.keep(len(vals)); err != nil {
				return err
			}
			seen[string(kb)] = true
			return next.push(vals)
		},
		flush: next.flush,
	}
}

// sort is the Sort operator. ORDER BY sees the projection's output
// columns: keys are evaluated on one reused row binding only the columns'
// slots. A buffered row costs its concatenated sort keys, one string.
func (p *pipeline) sort(orderBy []*SortItem, cols []int, next vstage) vstage {
	type keyed struct {
		vals []Datum
		keys string // the ORDER BY sort keys, concatenated
		ends []int  // where each sort key in keys ends
	}
	var buf []keyed
	var ends []int // the rows' ends, len(orderBy) per row
	var kb []byte
	r := newRow(p.width)
	key := func(k keyed, j int) string {
		if j == 0 {
			return k.keys[:k.ends[0]]
		}
		return k.keys[k.ends[j-1]:k.ends[j]]
	}
	return vstage{
		push: func(vals []Datum) error {
			if err := p.keep(len(vals)); err != nil {
				return err
			}
			for i, s := range cols {
				r[s] = vals[i]
			}
			kb = kb[:0]
			for _, si := range orderBy {
				d, err := p.ctx.eval(si.Expr, r)
				if err != nil {
					return err
				}
				kb = d.Scalar().AppendSortKey(kb)
				ends = append(ends, len(kb))
			}
			buf = append(buf, keyed{vals: vals, keys: string(kb), ends: ends[len(ends)-len(orderBy):]})
			return nil
		},
		flush: func() error {
			sort.SliceStable(buf, func(a, b int) bool {
				for j := range orderBy {
					x, y := key(buf[a], j), key(buf[b], j)
					if x == y {
						continue
					}
					if orderBy[j].Desc {
						return x > y
					}
					return x < y
				}
				return false
			})
			rows := make([][]Datum, len(buf))
			for i := range buf {
				rows[i] = buf[i].vals
			}
			return emitAll(p, rows, next.push, next.flush)
		},
	}
}

// page is the Skip/Limit operator (limit < 0: none). The push that reaches
// the limit answers errStopMatching, which stops every operator upstream.
func page(skip, limit int, next vstage) vstage {
	emitted := 0
	return vstage{
		push: func(vals []Datum) error {
			if skip > 0 {
				skip--
				return nil
			}
			if limit >= 0 && emitted >= limit {
				return errStopMatching
			}
			emitted++
			if err := next.push(vals); err != nil {
				return err
			}
			if limit >= 0 && emitted >= limit {
				return errStopMatching
			}
			return nil
		},
		flush: next.flush,
	}
}

// bind turns WITH's projected rows back into binding rows for the clauses
// after it, applying WITH ... WHERE (the Filter operator). Only the
// columns' slots are bound: WITH ends every other variable's scope.
func (p *pipeline) bind(cols []int, where Expr, next stage) vstage {
	r := newRow(p.width) // reused: a binding row pushed downstream is transient
	return vstage{
		push: func(vals []Datum) error {
			for i, s := range cols {
				r[s] = vals[i]
			}
			if where != nil {
				t, err := p.ctx.evalBool(where, r)
				if err != nil || t != triTrue {
					return err
				}
			}
			return next.push(r)
		},
		flush: next.flush,
	}
}

// sink is RETURN's Sink operator: each row is charged, then emitted; its
// flush records the RETURN clause's timing.
func (p *pipeline) sink(i int, emit func([]Datum) error) vstage {
	return vstage{
		push: func(vals []Datum) error {
			if err := p.keep(len(vals)); err != nil {
				return err
			}
			return emit(vals)
		},
		flush: func() error {
			p.done[i] = time.Since(p.start)
			return nil
		},
	}
}

// evalPosInt evaluates a SKIP or LIMIT expression, on a row binding
// nothing, to a non-negative integer.
func (p *pipeline) evalPosInt(e Expr, what string) (int, error) {
	d, err := p.ctx.eval(e, newRow(p.width))
	if err != nil {
		return 0, err
	}
	v := d.Scalar()
	if v.Kind() != graph.KindInt || v.Int() < 0 {
		return 0, execErrf("%s requires a non-negative integer", what)
	}
	return int(v.Int()), nil
}
