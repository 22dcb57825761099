package cypher

// Streaming execution: the engine-side half of the Session/Cursor API.
//
// The classic executor materializes every clause's output rows before the
// caller sees anything, which is the wrong shape for a wire protocol —
// Bolt streams RECORD messages under client-driven flow control, and a
// query returning a million rows should not retain them all server-side.
// streamFastPlan recognizes the transport workload's canonical read shape
//
//	MATCH ... [WHERE ...] RETURN <non-aggregate items> [SKIP n] [LIMIT n]
//
// and execMatchStream pipelines it end to end: each pattern match is
// projected and handed to the cursor's sink immediately, so the first row
// reaches the client while the scan is still running, result memory is
// O(channel buffer), and LIMIT stops the scan as soon as it is satisfied
// instead of scanning to completion. Queries outside the shape (WITH,
// aggregation, ORDER BY, DISTINCT, mutations) fall back
// to the materialized path and the cursor drains Result.Rows — observable
// behaviour is identical either way, only the delivery cadence differs.

import (
	"context"
	"errors"
)

// streamSink carries rows from an executing query to its Cursor. Emission
// blocks when the channel buffer is full — that backpressure is what lets
// a Bolt PULL with a small n pace a huge scan — and unblocks when the
// cursor's context is cancelled (Close, RESET, disconnect).
type streamSink struct {
	cctx context.Context
	cols chan []string
	rows chan []Datum
}

// streamBuffer is the per-cursor row buffer: deep enough to decouple the
// scan from per-row channel latency, small enough that an unread stream
// retains almost nothing.
const streamBuffer = 64

func newStreamSink(cctx context.Context) *streamSink {
	return &streamSink{
		cctx: cctx,
		cols: make(chan []string, 1),
		rows: make(chan []Datum, streamBuffer),
	}
}

// publishColumns announces the result header. It is delivered at most
// once; the cursor's Columns() blocks on it.
func (s *streamSink) publishColumns(cols []string) {
	select {
	case s.cols <- cols:
	default:
	}
}

// emit hands one projected row to the cursor, honoring cancellation.
func (s *streamSink) emit(row []Datum) error {
	select {
	case s.rows <- row:
		return nil
	case <-s.cctx.Done():
		return s.cctx.Err()
	}
}

// streamFastPlan recognizes a single non-optional MATCH followed by a
// RETURN of plain (non-aggregate) items with optional SKIP/LIMIT — the
// shape execMatchStream can pipeline without materializing rows. Star
// projections, DISTINCT and ORDER BY need the full row set and fall back.
func streamFastPlan(q *Query) (*MatchClause, *ReturnClause, bool) {
	if len(q.Clauses) != 2 {
		return nil, nil, false
	}
	mc, ok := q.Clauses[0].(*MatchClause)
	if !ok || mc.Optional {
		return nil, nil, false
	}
	rc, ok := q.Clauses[1].(*ReturnClause)
	if !ok {
		return nil, nil, false
	}
	p := &rc.Projection
	if p.Star || p.Distinct || len(p.OrderBy) > 0 || len(p.Items) == 0 {
		return nil, nil, false
	}
	for _, it := range p.Items {
		if ContainsAggregate(it.Expr) {
			return nil, nil, false
		}
	}
	return mc, rc, true
}

// projectionCols names the output columns of a projection item list,
// deduplicating exactly like the materialized projector.
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

// execMatchStream runs the streaming plan: pattern matches are WHERE-
// filtered, projected, charged against the row/memory budget and emitted
// to the sink one at a time. SKIP drops the first n projected rows and
// LIMIT aborts the scan once satisfied (errStopMatching), so a LIMIT 10
// over a million-node label scans only as far as its tenth match.
func (ex *Executor) execMatchStream(ctx *evalCtx, m *matcher, mc *MatchClause, rc *ReturnClause, res *Result, sink *streamSink) error {
	p := &rc.Projection
	items := p.Items
	cols := projectionCols(items)

	skip := 0
	limit := -1
	if p.Skip != nil {
		n, err := ex.evalPosInt(ctx, p.Skip, "SKIP")
		if err != nil {
			return err
		}
		skip = n
	}
	if p.Limit != nil {
		n, err := ex.evalPosInt(ctx, p.Limit, "LIMIT")
		if err != nil {
			return err
		}
		limit = n
	}

	res.Columns = cols
	res.Exec.Streamed = true
	sink.publishColumns(cols)

	if limit == 0 {
		return nil
	}

	plan := ex.planClause(m, mc, nil)
	res.Stats.RowsExamined++

	emitted := 0
	err := m.matchAll(plan.parts, Row{}, func(r Row) error {
		if mc.Where != nil {
			t, err := ctx.evalBool(mc.Where, r)
			if err != nil {
				return err
			}
			if t != triTrue {
				return nil
			}
		}
		if skip > 0 {
			skip--
			return nil
		}
		vals := make([]Datum, len(items))
		for i, it := range items {
			d, err := ctx.eval(it.Expr, r)
			if err != nil {
				return err
			}
			vals[i] = d
		}
		// A streamed row is never retained server-side, but it still counts
		// against the row cap (the budget bounds client-visible output) and
		// charges the channel-resident estimate against memory.
		if err := m.bud.chargeRows(1); err != nil {
			return err
		}
		if err := m.bud.chargeMem(int64(len(vals)) * 64); err != nil {
			return err
		}
		if err := sink.emit(vals); err != nil {
			return err
		}
		emitted++
		if limit >= 0 && emitted >= limit {
			return errStopMatching
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopMatching) {
		return err
	}
	return nil
}
