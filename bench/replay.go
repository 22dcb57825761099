package main

import (
	"fmt"
	"time"

	"github.com/graphrules/graphrules/internal/bolt"
	"github.com/graphrules/graphrules/internal/cypher"
	"github.com/graphrules/graphrules/internal/governor"
	"github.com/graphrules/graphrules/internal/graph"
)

// Bolt message tags the harness needs (internal/bolt keeps them unexported).
const (
	tagRun     = 0x10
	tagPull    = 0x3F
	tagSuccess = 0x70
	tagRecord  = 0x71
)

// replayer replays requests in-process for the traced run: each request goes
// through the layers graphd would call, in pipeline order, one span per layer
// call, all spans of a request under one op_id. Every layer is timed from
// outside, through its public functions only.
type replayer struct {
	cfg *config
	tr  *tracer
	gov *governor.Governor
	// server stands in for graphd's executor (admission, shared plan cache);
	// layers serves the isolated Explain/Execute calls so they do not disturb
	// server's plan-cache counters.
	server *cypher.Executor
	sess   *cypher.Session
	layers *cypher.Executor
	enc    bolt.Encoder

	ops     []map[string]time.Duration // per operation: span name -> time
	opID    int                        // op_id of the last element of ops
	rows    int64
	scanned int64
	seeks   int64
	bytes   int64
}

func newReplayer(cfg *config, tr *tracer, g *graph.Graph) *replayer {
	gov := governor.New(governor.Config{MaxConcurrent: 64, MaxQueue: 64, QueueTimeout: 2 * time.Second}) // graphd's defaults
	server := cypher.NewExecutor(g, cypher.WithAdmission(gov))
	return &replayer{cfg: cfg, tr: tr, gov: gov, server: server, sess: server.OpenSession(),
		layers: cypher.NewExecutor(g)}
}

func (r *replayer) close() { r.sess.Close() }

// request replays one request. seek, when given, performs the index seek for
// the request's key.
func (r *replayer) request(op int, text string, params map[string]any, seek func()) error {
	var err error
	if op != r.opID || len(r.ops) == 0 {
		r.ops, r.opID = append(r.ops, map[string]time.Duration{}), op
	}
	total := r.ops[len(r.ops)-1] // a bolt_scan operation is two requests
	timed := func(name string, parent int, fn func()) time.Duration {
		d := r.tr.do(name, parent, op, fn)
		total[name] += d
		return d
	}
	if params == nil {
		params = map[string]any{}
	}
	values := make(map[string]graph.Value, len(params))
	for k, v := range params {
		values[k] = graph.Of(v)
	}

	// What graphd does for one request: decode RUN and PULL, admit, run the
	// query through a session cursor, encode each row as a RECORD.
	var wire [2][]byte
	r.enc.Reset()
	if err := r.enc.AppendStructure(tagRun, text, params, map[string]any{}); err != nil {
		return err
	}
	wire[0] = append([]byte(nil), r.enc.Bytes()...)
	r.enc.Reset()
	if err := r.enc.AppendStructure(tagPull, map[string]any{"n": int64(scanPage)}); err != nil {
		return err
	}
	wire[1] = append([]byte(nil), r.enc.Bytes()...)

	root := r.tr.start("request", 0, op)
	timed("bolt.decode", root, func() {
		for _, b := range wire {
			if _, _, derr := bolt.Decode(b); derr != nil {
				err = derr
			}
		}
	})
	timed("governor.admit", root, func() {
		done, aerr := r.gov.Admit(r.cfg.ctx)
		if aerr != nil {
			err = aerr
			return
		}
		done(nil)
	})
	var rows [][]cypher.Datum
	timed("cypher.session", root, func() {
		cur, rerr := r.sess.Run(r.cfg.ctx, text, values)
		if rerr != nil {
			err = rerr
			return
		}
		for cur.Next() {
			rows = append(rows, cur.Record())
		}
		if _, serr := cur.Summary(); serr != nil {
			err = serr
		}
	})
	timed("bolt.encode", root, func() {
		for _, row := range rows {
			fields := make([]any, len(row))
			for i, d := range row {
				fields[i] = wireValue(d.Scalar())
			}
			r.enc.Reset()
			if eerr := r.enc.AppendStructure(tagRecord, fields); eerr != nil {
				err = eerr
			}
			r.bytes += int64(len(r.enc.Bytes()))
		}
	})
	total["request"] += r.tr.end(root)
	if err != nil {
		return fmt.Errorf("replay %q: %w", text, err)
	}

	// The same work split by layer, each call on its own.
	split := r.tr.start("layers", 0, op)
	// Parse before Lex: Parse lexes too, and whichever sees a text first pays
	// for the cold cache, so this order keeps parse minus lex non-negative.
	var q *cypher.Query
	parse := timed("cypher.parse", split, func() { q, err = cypher.Parse(text) })
	if err == nil {
		timed("cypher.lex", split, func() { _, err = cypher.Lex(text) })
	}
	if err != nil {
		return fmt.Errorf("replay %q: %w", text, err)
	}
	misses := r.layers.PlanCacheStats().Misses
	timed("cypher.explain", split, func() { _, err = r.layers.Explain(text) })
	if r.layers.PlanCacheStats().Misses > misses {
		total["explain.parse"] += parse // a plan-cache miss parsed inside Explain
	}
	if seek != nil {
		timed("graph.seek", split, seek)
	}
	var res *cypher.Result
	timed("cypher.execute", split, func() { res, err = r.layers.Execute(q, values) })
	r.tr.end(split)
	if err != nil {
		return fmt.Errorf("replay %q: %w", text, err)
	}
	r.rows += int64(len(rows))
	r.scanned += int64(res.Exec.RowsScanned)
	r.seeks += int64(res.Exec.IndexSeeks)
	return nil
}

// report turns the replayed operations into layer metrics: the median over
// operations of each layer's time (a derived time is the median of the
// per-operation differences, so a skewed latency distribution cannot bias
// it), and counts per row or per operation. cypher.cursor_us can be negative:
// on a large scan the streaming session does less than a materialising
// Execute.
func (r *replayer) report(layers map[string]float64) {
	med := func(name, minus string) float64 {
		vs := make([]float64, len(r.ops))
		for i, t := range r.ops {
			vs[i] = us(t[name] - t[minus])
		}
		return median(vs)
	}
	var encode time.Duration
	for _, t := range r.ops {
		encode += t["bolt.encode"]
	}
	layers["bolt.decode_us"] = med("bolt.decode", "")
	layers["governor.admit_us"] = med("governor.admit", "")
	layers["cypher.lex_us"] = med("cypher.lex", "")
	layers["cypher.parse_us"] = med("cypher.parse", "cypher.lex")
	layers["cypher.plan_us"] = med("cypher.explain", "explain.parse")
	layers["graph.seek_us"] = med("graph.seek", "")
	layers["cypher.exec_us"] = med("cypher.execute", "")
	layers["cypher.cursor_us"] = med("cypher.session", "cypher.execute")
	layers["bolt.replay_us"] = med("request", "")
	pc := r.server.PlanCacheStats()
	layers["cypher.plan_cache_hit_ratio"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	layers["cypher.index_seeks_per_op"] = float64(r.seeks) / float64(len(r.ops))
	if r.rows > 0 {
		layers["cypher.rows_scanned_per_row"] = float64(r.scanned) / float64(r.rows)
		layers["bolt.encode_us_per_record"] = us(encode) / float64(r.rows)
		layers["bolt.bytes_per_record"] = float64(r.bytes) / float64(r.rows)
	}
}

// wireValue lowers an engine value to what packstream encodes, as the server
// does for a RECORD field.
func wireValue(v graph.Value) any {
	switch v.Kind() {
	case graph.KindBool:
		return v.Bool()
	case graph.KindInt:
		return v.Int()
	case graph.KindFloat:
		return v.Float()
	case graph.KindString:
		return v.Str()
	default:
		return nil
	}
}
