package graph

import (
	"sync"
	"testing"
)

// rangeGraph builds a small graph with mixed-kind properties under one
// label: ints 0..9 on key "x" (insertion order 0,1,...,9), a few strings on
// key "s", and typed edges carrying a "w" property.
func rangeGraph() (*Graph, []ID) {
	g := New("range")
	var ids []ID
	strs := []string{"apple", "apricot", "banana", "cherry"}
	for i := 0; i < 10; i++ {
		props := Props{"x": NewInt(int64(i))}
		if i < len(strs) {
			props["s"] = NewString(strs[i])
		}
		n := g.AddNode([]string{"P"}, props)
		ids = append(ids, n.ID)
	}
	for i := 1; i < len(ids); i++ {
		g.MustAddEdge(ids[i-1], ids[i], []string{"E"}, Props{"w": NewInt(int64(i * 10))})
	}
	return g, ids
}

func rangeInts(t *testing.T, g *Graph, lo, hi Bound) []int64 {
	t.Helper()
	var out []int64
	for _, n := range g.LabelPropRange("P", "x", lo, hi) {
		out = append(out, n.Props["x"].Int())
	}
	return out
}

func intsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLabelPropRangeBounds(t *testing.T) {
	g, _ := rangeGraph()
	cases := []struct {
		name   string
		lo, hi Bound
		want   []int64
	}{
		{"closed", ValueBound(NewInt(3), true), ValueBound(NewInt(6), true), []int64{3, 4, 5, 6}},
		{"open", ValueBound(NewInt(3), false), ValueBound(NewInt(6), false), []int64{4, 5}},
		{"half-open-lo", ValueBound(NewInt(3), false), ValueBound(NewInt(6), true), []int64{4, 5, 6}},
		{"unbounded-hi", ValueBound(NewInt(7), true), Bound{}, []int64{7, 8, 9}},
		{"unbounded-lo", Bound{}, ValueBound(NewInt(2), false), []int64{0, 1}},
		{"empty", ValueBound(NewInt(100), true), Bound{}, nil},
		{"inverted", ValueBound(NewInt(6), true), ValueBound(NewInt(3), true), nil},
		{"point", ValueBound(NewInt(5), true), ValueBound(NewInt(5), true), []int64{5}},
	}
	for _, tc := range cases {
		if got := rangeInts(t, g, tc.lo, tc.hi); !intsEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if n := g.LabelPropRangeCount("P", "x", tc.lo, tc.hi); n != len(tc.want) {
			t.Errorf("%s: count = %d, want %d", tc.name, n, len(tc.want))
		}
	}
}

// TestRangeKindBands checks that numeric and string sort keys live in
// disjoint bands: a numeric range never returns string-valued entries even
// when both kinds are indexed under the same key.
func TestRangeKindBands(t *testing.T) {
	g := New("bands")
	g.AddNode([]string{"M"}, Props{"v": NewInt(5)})
	g.AddNode([]string{"M"}, Props{"v": NewString("5")})
	g.AddNode([]string{"M"}, Props{"v": NewBool(true)})

	lo, hi := ValueBound(NewInt(0), true), ValueBound(NewInt(10), true)
	got := g.LabelPropRange("M", "v", lo, hi)
	if len(got) != 1 || got[0].Props["v"].Kind() != KindInt {
		t.Fatalf("numeric range returned %d entries (want just the int)", len(got))
	}
	// An unbounded-above numeric range clamped at the string band fence
	// (what the executor emits for `v > 0`) must exclude strings too.
	got = g.LabelPropRange("M", "v", ValueBound(NewInt(0), false), RawBound("2:", false))
	if len(got) != 1 || got[0].Props["v"].Kind() != KindInt {
		t.Fatalf("band-clamped range returned %d entries", len(got))
	}
	// String prefix segment catches only the string.
	got = g.LabelPropRange("M", "v", RawBound("2:", true), RawBound("3:", false))
	if len(got) != 1 || got[0].Props["v"].Kind() != KindString {
		t.Fatalf("string band returned %d entries", len(got))
	}
}

// TestRangeInsertionOrder pins the order contract: seek results come back
// in label-bucket insertion order (a subsequence of the plain label scan),
// not value order.
func TestRangeInsertionOrder(t *testing.T) {
	g := New("order")
	// Insert out of value order so value order != insertion order.
	for _, v := range []int64{5, 1, 9, 3, 7} {
		g.AddNode([]string{"Q"}, Props{"x": NewInt(v)})
	}
	got := rangeIntsLabel(t, g, "Q")
	want := []int64{5, 1, 3} // insertion order of the values <= 5
	if !intsEqual(got, want) {
		t.Fatalf("range order %v, want insertion order %v", got, want)
	}
}

// TestLabelPropInOrder pins that the union of equality seeks comes back in
// label-bucket order, not in the order of the values asked for, and that a
// null value matches nothing.
func TestLabelPropInOrder(t *testing.T) {
	g := New("in")
	for _, v := range []int64{5, 1, 9, 3, 1} {
		g.AddNode([]string{"Q"}, Props{"x": NewInt(v)})
	}
	var got []int64
	for _, n := range g.LabelPropIn("Q", "x", []Value{NewInt(3), Null, NewFloat(1), NewInt(5)}) {
		got = append(got, n.Props["x"].Int())
	}
	if want := []int64{5, 1, 3, 1}; !intsEqual(got, want) {
		t.Fatalf("IN order %v, want bucket order %v", got, want)
	}
}

func rangeIntsLabel(t *testing.T, g *Graph, label string) []int64 {
	t.Helper()
	var out []int64
	for _, n := range g.LabelPropRange(label, "x", Bound{}, ValueBound(NewInt(5), true)) {
		out = append(out, n.Props["x"].Int())
	}
	return out
}

func TestTypePropRangeAndEquality(t *testing.T) {
	g, _ := rangeGraph()
	es := g.TypePropRange("E", "w", ValueBound(NewInt(30), true), ValueBound(NewInt(50), false))
	if len(es) != 2 {
		t.Fatalf("edge range returned %d edges, want 2", len(es))
	}
	if es[0].Props["w"].Int() != 30 || es[1].Props["w"].Int() != 40 {
		t.Fatalf("edge range values %v %v", es[0].Props["w"], es[1].Props["w"])
	}
	if n := g.TypePropRangeCount("E", "w", Bound{}, Bound{}); n != 9 {
		t.Fatalf("unbounded edge count = %d, want 9", n)
	}
	eq := g.TypePropEdges("E", "w", NewInt(40))
	if len(eq) != 1 || eq[0].Props["w"].Int() != 40 {
		t.Fatalf("edge equality seek: %v", eq)
	}
	if got := g.TypePropEdges("E", "w", Null); got != nil {
		t.Fatalf("null equality seek should return nil, got %v", got)
	}
}

// TestRangeIndexInvalidation checks incremental invalidation: mutating a
// node drops only the postings of its labels, mutating an edge only the
// postings of its types, and subsequent seeks rebuild and see fresh data.
func TestRangeIndexInvalidation(t *testing.T) {
	g, ids := rangeGraph()
	other := g.AddNode([]string{"Other"}, Props{"x": NewInt(1)})

	// Warm three postings: (P,x), (Other,x), (E,w).
	g.LabelPropRangeCount("P", "x", Bound{}, Bound{})
	g.LabelPropRangeCount("Other", "x", Bound{}, Bound{})
	g.TypePropRangeCount("E", "w", Bound{}, Bound{})
	st := g.IndexStats()
	if st.OrdNodeLive != 2 || st.OrdEdgeLive != 1 {
		t.Fatalf("live postings = %d node / %d edge, want 2/1", st.OrdNodeLive, st.OrdEdgeLive)
	}

	// Mutating a P node drops (P,x) but keeps (Other,x) and (E,w).
	if err := g.SetNodeProp(ids[0], "x", NewInt(100)); err != nil {
		t.Fatal(err)
	}
	st = g.IndexStats()
	if st.OrdNodeLive != 1 || st.OrdEdgeLive != 1 {
		t.Fatalf("after node mutation: %d node / %d edge live, want 1/1", st.OrdNodeLive, st.OrdEdgeLive)
	}
	// The rebuilt posting must see the new value.
	if n := g.LabelPropRangeCount("P", "x", ValueBound(NewInt(100), true), ValueBound(NewInt(100), true)); n != 1 {
		t.Fatalf("rebuilt posting misses updated value (count=%d)", n)
	}

	// Mutating an edge drops (E,w) but keeps node postings.
	eid := g.EdgesWithType("E")[0]
	if err := g.SetEdgeProp(eid, "w", NewInt(999)); err != nil {
		t.Fatal(err)
	}
	st = g.IndexStats()
	if st.OrdEdgeLive != 0 {
		t.Fatalf("after edge mutation: %d edge postings live, want 0", st.OrdEdgeLive)
	}
	if n := g.TypePropRangeCount("E", "w", ValueBound(NewInt(999), true), ValueBound(NewInt(999), true)); n != 1 {
		t.Fatalf("rebuilt edge posting misses updated value (count=%d)", n)
	}

	// Adding a label to a node invalidates postings under every label the
	// node now carries: old postings held the superseded node struct and the
	// new label's posting is missing it.
	g.LabelPropRangeCount("P", "x", Bound{}, Bound{}) // re-warm (P,x)
	if err := g.AddNodeLabels(other.ID, "P"); err != nil {
		t.Fatal(err)
	}
	if n := g.LabelPropRangeCount("P", "x", ValueBound(NewInt(1), true), ValueBound(NewInt(1), true)); n != 2 {
		t.Fatalf("posting after AddNodeLabels: count=%d, want 2 (nodes 1 and the relabeled one)", n)
	}

	// RemoveNode drops the removed node from rebuilt postings.
	g.RemoveNode(ids[5])
	if n := g.LabelPropRangeCount("P", "x", ValueBound(NewInt(5), true), ValueBound(NewInt(5), true)); n != 0 {
		t.Fatalf("posting still holds removed node (count=%d)", n)
	}
}

// TestRangeScanUnderMutation runs range seeks concurrently with COW
// mutations. Under -race this pins the invalidation locking contract:
// seeks must never observe torn postings, and every returned node is a
// valid (possibly superseded) snapshot carrying the label.
func TestRangeScanUnderMutation(t *testing.T) {
	g, ids := rangeGraph()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[i%len(ids)]
			_ = g.SetNodeProp(id, "x", NewInt(int64(i%20)))
			_ = g.SetEdgeProp(g.EdgesWithType("E")[i%9], "w", NewInt(int64(i)))
			if i%7 == 0 {
				g.AddNode([]string{"P"}, Props{"x": NewInt(int64(i))})
			}
		}
	}()

	lo, hi := ValueBound(NewInt(0), true), ValueBound(NewInt(1000), true)
	for iter := 0; iter < 300; iter++ {
		for _, n := range g.LabelPropRange("P", "x", lo, hi) {
			if n == nil {
				t.Fatal("nil node from range seek during mutation")
			}
			if n.Props["x"].IsNull() {
				t.Fatal("range seek returned node without the indexed key")
			}
		}
		for _, e := range g.TypePropRange("E", "w", Bound{}, Bound{}) {
			if e == nil {
				t.Fatal("nil edge from range seek during mutation")
			}
		}
	}
	close(stop)
	wg.Wait()

	// After the writer stops, a fresh seek must agree with a full scan.
	want := 0
	for _, id := range g.NodesWithLabel("P") {
		n := g.Node(id)
		if v, ok := n.Props["x"]; ok && !v.IsNull() {
			want++
		}
	}
	if got := g.LabelPropRangeCount("P", "x", Bound{}, Bound{}); got != want {
		t.Fatalf("post-mutation count %d != scan count %d", got, want)
	}
}
