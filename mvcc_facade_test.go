package graphrules

import (
	"bytes"
	"testing"
	"time"
)

// TestFacadeMVCCAndWAL drives the new MVCC surface end to end through the
// facade alone: batch epochs, snapshots, commit subscriptions, the metric
// maintainer, and WAL group commit with crash recovery.
func TestFacadeMVCCAndWAL(t *testing.T) {
	g := NewGraph("facade-mvcc")
	var wal bytes.Buffer
	w := NewGroupWAL(&wal, 2*time.Millisecond)
	detach := AttachWAL(g, w)

	var epochs int
	cancel := OnGraphCommit(g, func(d *GraphDelta) { epochs++ })

	b := NewBatch(g)
	n1 := b.AddNode([]string{"T"}, Props{"id": NewIntValue(1)})
	n2 := b.AddNode([]string{"T"}, Props{"id": NewIntValue(2)})
	b.AddEdge(n1.ID, n2.ID, []string{"REL"}, nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	g.AddNode([]string{"T"}, nil) // missing id

	snap := SnapshotOf(g)
	g.AddNode([]string{"T"}, Props{"id": NewIntValue(3)})
	if snap.NodeCount() != 3 || g.NodeCount() != 4 {
		t.Fatalf("snapshot %d / live %d", snap.NodeCount(), g.NodeCount())
	}
	if epochs != 3 {
		t.Fatalf("subscriber saw %d epochs, want 3", epochs)
	}
	cancel()

	// Maintained metrics through the facade.
	r, ok := ParseRuleNL("Each T node should have a id property.")
	if !ok {
		t.Fatal("rule NL did not parse")
	}
	m := NewMaintainer(g, []Rule{r})
	defer m.Attach()()
	g.AddNode([]string{"T"}, Props{"id": NewIntValue(4)})
	s := m.Scores()[0]
	if s.Err != nil || s.Counts.Support != 4 || s.Counts.Body != 5 {
		t.Fatalf("maintained score %+v err=%v", s.Counts, s.Err)
	}
	if st := m.Stats(); st.Epochs != 1 || st.Rescored != 1 {
		t.Fatalf("maintainer stats %+v", st)
	}

	// Recover from the WAL: every whole frame, and the tail of a torn log
	// is dropped.
	detach()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := RecoverWAL("rec", bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || rec.NodeCount() != g.NodeCount() || rec.EdgeCount() != g.EdgeCount() {
		t.Fatalf("recovered %d/%d (torn %v), want %d/%d",
			rec.NodeCount(), rec.EdgeCount(), info.Torn, g.NodeCount(), g.EdgeCount())
	}
	// The torn tail is a copy of the first frame's 5-byte header (a
	// one-byte length and the CRC) without its payload.
	log := wal.Bytes()
	torn, info, err := RecoverWAL("torn", bytes.NewReader(append(log[:len(log):len(log)], log[:5]...)))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || torn.NodeCount() != g.NodeCount() {
		t.Fatalf("torn recovery: %+v, %d nodes", info, torn.NodeCount())
	}

	// Footprints through the facade.
	f, err := FootprintOf("MATCH (x:T) WHERE x.id IS NOT NULL RETURN count(*) AS n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Wild() || !f.NodeLabels["T"] || !f.Keys["id"] {
		t.Fatalf("footprint %s", f)
	}
}
