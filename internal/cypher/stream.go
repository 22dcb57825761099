package cypher

// The Session's result sink: the execution pipeline (pipeline.go) emits
// each RETURN row here and the query's Cursor reads it, so a result is
// never held server-side. The columns are published once the pipeline is
// compiled, before the first row.

import "context"

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
