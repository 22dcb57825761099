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
//	Sink         appends to Result.Rows (Run) or feeds a Cursor (Session)
//
// push receives one row. A binding row handed downstream is a transient
// view: an operator that keeps it clones it. flush is called once, after
// the last push; an operator pushes whatever it buffered, then flushes
// downstream, so a LIMIT that stopped its upstream still lets every later
// operator finish. Sort, Aggregate and Barrier are the only operators
// where rows wait; everything else streams.
//
// The budget is charged in one place, keep: a row is charged when an
// operator keeps it (barrier, sort buffer, new DISTINCT key, new group) or
// when the sink emits it. Rows that only pass through are free; collect()
// charges its elements in aggState. What bounds a pass-through product is
// the deadline and cancellation, polled (pollCtx) by the matcher per
// candidate, by Unwind per element and by emitAll per released row.

import (
	"errors"
	"sort"
	"strings"
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
	start time.Time
	done  []time.Duration // per clause: time until its operator flushed
}

// runPipeline compiles q and drives it: the head receives the single empty
// input row and is then flushed. Result rows are appended to res.Rows, or
// emitted to sink when one is given; either way res.Columns is set, and
// published to the sink, before the first row.
func (ex *Executor) runPipeline(ctx *evalCtx, q *Query, res *Result, sink *streamSink) error {
	p := &pipeline{ex: ex, ctx: ctx, m: ctx.matcher, res: res, start: time.Now(), done: make([]time.Duration, len(q.Clauses))}
	defer p.timings(q)
	emit := func(row []Datum) error {
		res.Rows = append(res.Rows, row)
		return nil
	}
	if sink != nil {
		emit = sink.emit
	}
	head, err := p.compile(q, emit)
	if err != nil {
		return err
	}
	if sink != nil {
		sink.publishColumns(res.Columns)
	}
	if err := p.checkpoint(); err != nil {
		return err
	}
	if err := head.push(Row{}); err != nil && !errors.Is(err, errStopMatching) {
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

// keep charges one row of width bindings that an operator keeps or a sink
// emits: the pipeline's one budget charge.
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

// compile builds the operator chain for q. Scope — the variables bound
// before each clause — is tracked statically, so RETURN * and the planner
// know it without waiting for a row. Each clause's operator runs inside
// the previous one's push, so the clause count bounds the run's stack
// depth; it is capped like expression depth.
func (p *pipeline) compile(q *Query, emit func([]Datum) error) (stage, error) {
	if len(q.Clauses) > maxExprDepth {
		return stage{}, execErrf("query has %d clauses; at most %d are supported", len(q.Clauses), maxExprDepth)
	}
	scope := map[string]bool{}
	builders := make([]func(next stage) stage, len(q.Clauses))
	for i, clause := range q.Clauses {
		if i > 0 {
			if _, ok := q.Clauses[i-1].(*ReturnClause); ok {
				return stage{}, execErrf("RETURN must be the final clause")
			}
		}
		switch cl := clause.(type) {
		case *MatchClause:
			builders[i] = p.match(cl, copyBound(scope))
			for _, v := range patternVars(cl.Patterns) {
				scope[v] = true
			}
		case *UnwindClause:
			builders[i] = p.unwind(cl)
			scope[cl.Alias] = true
		case *WithClause:
			cols, build, err := p.projection(&cl.Projection, scope)
			if err != nil {
				return stage{}, err
			}
			builders[i] = func(next stage) stage { return build(p.bind(cols, cl.Where, next)) }
			scope = map[string]bool{}
			for _, c := range cols {
				scope[c] = true
			}
		case *ReturnClause:
			cols, build, err := p.projection(&cl.Projection, scope)
			if err != nil {
				return stage{}, err
			}
			p.res.Columns = cols
			builders[i] = func(stage) stage { return build(p.sink(i, emit)) }
		case *CreateClause:
			builders[i] = p.barrier(func(in []Row) ([]Row, error) { return p.ex.execCreate(p.ctx, cl, in, &p.res.Stats) })
			for _, v := range patternVars(cl.Patterns) {
				scope[v] = true
			}
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

// match is the Match operator. The clause is planned at its first input
// row, so a MATCH behind a write barrier plans against the written graph.
// Its bound index accesses are installed on the matcher only while its own
// matchAll runs: a downstream MATCH installs its own inside the callback
// and restores these on return.
func (p *pipeline) match(cl *MatchClause, bound map[string]bool) func(stage) stage {
	newVars := patternVars(cl.Patterns)
	return func(next stage) stage {
		m := p.m
		var plan *matchPlan
		var acc []access
		return stage{
			push: func(row Row) error {
				if plan == nil {
					plan, acc = p.plan(cl, bound)
				}
				p.res.Stats.RowsExamined++
				outer := m.acc
				m.acc = acc
				matched := false
				err := m.matchAll(plan.parts, row, func(r Row) error {
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
				return next.push(nullPadded(row, newVars))
			},
			flush: next.flush,
		}
	}
}

// plan binds the clause's index accesses to this run's parameters and
// plans its parts. It is kept out of the push closure, whose frame sits
// under every match on a Session goroutine's small stack.
func (p *pipeline) plan(cl *MatchClause, bound map[string]bool) (*matchPlan, []access) {
	acc := p.ex.bindSargs(cl.sargs, p.ctx.params, false)
	plan := p.ex.planMatch(p.m.g, cl.Patterns, bound, acc)
	recordPlan(p.m, plan)
	return plan, acc
}

// nullPadded copies row with every variable of vars it does not bind set
// to NULL: OPTIONAL MATCH's row when nothing matched.
func nullPadded(row Row, vars []string) Row {
	r := row.clone()
	for _, v := range vars {
		if _, ok := r[v]; !ok {
			r[v] = NullDatum
		}
	}
	return r
}

// unwind is the Unwind operator: a list yields one row per element, NULL
// none, any other value itself. The alias is bound in place for each push
// and the input row restored afterwards. Its rows are not charged, so it
// polls cancellation and the deadline per element, as the matcher does per
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
				prev, had := row[cl.Alias]
				defer func() {
					if had {
						row[cl.Alias] = prev
					} else {
						delete(row, cl.Alias)
					}
				}()
				for _, e := range elems {
					if err := p.m.pollCtx(); err != nil {
						return err
					}
					row[cl.Alias] = ValDatum(e)
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
				if err := p.keep(len(r)); err != nil {
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

// projection compiles a WITH/RETURN projection against the scope before
// it: star items first (sorted by name), then the written items. SKIP and
// LIMIT are evaluated here, once. build chains Project or Aggregate, then
// Distinct, Sort and Skip/Limit as the projection asks, into next.
func (p *pipeline) projection(pr *Projection, scope map[string]bool) (cols []string, build func(next vstage) stage, err error) {
	items := pr.Items
	if pr.Star {
		var star []*ReturnItem
		for _, v := range sortedKeys(scope) {
			star = append(star, &ReturnItem{Expr: &Variable{Name: v}, Alias: v})
		}
		items = append(star, items...)
	}
	if len(items) == 0 {
		return nil, nil, execErrf("projection requires at least one item")
	}
	cols = projectionCols(items)
	skip, limit := 0, -1
	if pr.Skip != nil {
		if skip, err = p.ex.evalPosInt(p.ctx, pr.Skip, "SKIP"); err != nil {
			return nil, nil, err
		}
	}
	if pr.Limit != nil {
		if limit, err = p.ex.evalPosInt(p.ctx, pr.Limit, "LIMIT"); err != nil {
			return nil, nil, err
		}
	}
	return cols, func(next vstage) stage {
		if pr.Skip != nil || pr.Limit != nil {
			next = page(skip, limit, next)
		}
		if len(pr.OrderBy) > 0 {
			next = p.sort(pr.OrderBy, cols, next)
		}
		if pr.Distinct {
			next = p.distinct(next)
		}
		for _, it := range items {
			if ContainsAggregate(it.Expr) {
				return p.aggregate(items, next)
			}
		}
		return p.project(items, next)
	}, nil
}

// projectionCols names the output columns of a projection item list,
// suffixing "_" to repeated names.
func projectionCols(items []*ReturnItem) []string {
	cols := make([]string, len(items))
	seen := map[string]bool{}
	for i, it := range items {
		name := it.Name()
		for seen[name] {
			name += "_"
		}
		seen[name] = true
		cols[i] = name
	}
	return cols
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
// grouping keys; groups are emitted at flush in first-seen order. With no
// grouping keys there is exactly one group, even over no input, and a row
// costs only its aggregate updates.
func (p *pipeline) aggregate(items []*ReturnItem, next vstage) stage {
	isKey := make([]bool, len(items))
	keys := 0
	var calls []*FuncCall
	for i, it := range items {
		if ContainsAggregate(it.Expr) {
			collectAggregates(it.Expr, &calls)
		} else {
			isKey[i] = true
			keys++
		}
	}
	type group struct {
		vals  []Datum // grouping-key values; aggregate items filled at flush
		aggs  []*aggState
		first Row // the group's first input row, for the items' non-aggregate parts
	}
	newGroup := func(first Row, vals []Datum) *group {
		g := &group{vals: vals, first: first}
		for _, fc := range calls {
			g.aggs = append(g.aggs, newAggState(fc))
		}
		return g
	}
	var groups []*group
	index := map[string]*group{}
	scratch := make([]Datum, len(items))
	var kb strings.Builder
	return stage{
		push: func(r Row) error {
			if keys == 0 && len(groups) == 0 {
				groups = append(groups, newGroup(r.clone(), make([]Datum, len(items))))
			}
			var g *group
			if keys == 0 {
				g = groups[0]
			} else {
				kb.Reset()
				for i, it := range items {
					if !isKey[i] {
						continue
					}
					d, err := p.ctx.eval(it.Expr, r)
					if err != nil {
						return err
					}
					scratch[i] = d
					kb.WriteString(d.Hashable())
					kb.WriteByte('|')
				}
				k := kb.String()
				if g = index[k]; g == nil {
					if err := p.keep(len(items)); err != nil {
						return err
					}
					g = newGroup(r.clone(), append([]Datum(nil), scratch...))
					index[k] = g
					groups = append(groups, g)
				}
			}
			for _, st := range g.aggs {
				if err := st.add(p.ctx, r); err != nil {
					return err
				}
			}
			return nil
		},
		flush: func() error {
			if keys == 0 && len(groups) == 0 {
				groups = append(groups, newGroup(Row{}, make([]Datum, len(items))))
			}
			out := make([][]Datum, len(groups))
			for gi, g := range groups {
				results := make(map[*FuncCall]Datum, len(g.aggs))
				for _, st := range g.aggs {
					results[st.fn] = st.result()
				}
				p.ctx.aggResults = results
				for i, it := range items {
					if isKey[i] {
						continue
					}
					d, err := p.ctx.eval(it.Expr, g.first)
					if err != nil {
						p.ctx.aggResults = nil
						return err
					}
					g.vals[i] = d
				}
				p.ctx.aggResults = nil
				out[gi] = g.vals
			}
			return emitAll(p, out, next.push, next.flush)
		},
	}
}

// distinct is the Distinct operator: it passes each row whose values it
// has not seen before and drops repeats.
func (p *pipeline) distinct(next vstage) vstage {
	seen := map[string]bool{}
	var kb strings.Builder
	return vstage{
		push: func(vals []Datum) error {
			kb.Reset()
			for _, d := range vals {
				kb.WriteString(d.Hashable())
				kb.WriteByte('|')
			}
			k := kb.String()
			if seen[k] {
				return nil
			}
			if err := p.keep(len(vals)); err != nil {
				return err
			}
			seen[k] = true
			return next.push(vals)
		},
		flush: next.flush,
	}
}

// sort is the Sort operator. ORDER BY sees the projection's output
// columns: keys are evaluated on a row binding each column name.
func (p *pipeline) sort(orderBy []*SortItem, cols []string, next vstage) vstage {
	type keyed struct {
		vals []Datum
		keys []string
	}
	var buf []keyed
	return vstage{
		push: func(vals []Datum) error {
			if err := p.keep(len(vals)); err != nil {
				return err
			}
			r := make(Row, len(cols))
			for i, c := range cols {
				r[c] = vals[i]
			}
			keys := make([]string, len(orderBy))
			for j, si := range orderBy {
				d, err := p.ctx.eval(si.Expr, r)
				if err != nil {
					return err
				}
				keys[j] = d.Scalar().SortKey()
			}
			buf = append(buf, keyed{vals: vals, keys: keys})
			return nil
		},
		flush: func() error {
			sort.SliceStable(buf, func(a, b int) bool {
				for j := range orderBy {
					ka, kb := buf[a].keys[j], buf[b].keys[j]
					if ka == kb {
						continue
					}
					if orderBy[j].Desc {
						return ka > kb
					}
					return ka < kb
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
// after it, applying WITH ... WHERE (the Filter operator).
func (p *pipeline) bind(cols []string, where Expr, next stage) vstage {
	return vstage{
		push: func(vals []Datum) error {
			r := make(Row, len(cols))
			for i, c := range cols {
				r[c] = vals[i]
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

// evalPosInt evaluates a SKIP or LIMIT expression to a non-negative integer.
func (ex *Executor) evalPosInt(ctx *evalCtx, e Expr, what string) (int, error) {
	d, err := ctx.eval(e, Row{})
	if err != nil {
		return 0, err
	}
	v := d.Scalar()
	if v.Kind() != graph.KindInt || v.Int() < 0 {
		return 0, execErrf("%s requires a non-negative integer", what)
	}
	return int(v.Int()), nil
}
