package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share OpID;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; it is only ever attached
// to the traced replay, never to the timed window.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: op, Name: name, StartNS: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, op int, fn func()) time.Duration {
	id := t.start(name, parent, op)
	fn()
	return t.end(id)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children (parallel calls)
// are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := selfTimes(t.spans)
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// write dumps the spans as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
