package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// memSink is an in-memory "disk" that distinguishes written from synced
// bytes: Sync advances the durable prefix. Recovery in these tests reads
// only the synced prefix — the strongest crash model, where everything
// past the last fsync is lost.
type memSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	synced int
}

func (m *memSink) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memSink) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced = m.buf.Len()
	return nil
}

func (m *memSink) SyncedBytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()[:m.synced]...)
}

// faultScenario is one deterministic multi-epoch run against a WAL
// behind a FaultSink.
type faultScenario struct {
	g     *graph.Graph
	wal   *WAL
	sink  *FaultSink
	disk  *memSink
	acked map[uint64]bool   // epoch -> Commit returned nil
	refs  map[uint64]string // epoch -> graph render after that epoch
	nodes []graph.ID
}

// runFaultScenario drives a fixed mutation script — adds, edges, property
// sets, each its own epoch, synced as it commits, then acknowledged by a
// Commit barrier — through a window-0 WAL whose sink carries the given
// fault schedule. Commit errors must be the
// typed poison; panics and hangs are failures by construction.
func runFaultScenario(t *testing.T, schedule map[int]Fault) *faultScenario {
	t.Helper()
	s := &faultScenario{
		g:     graph.New("fault"),
		disk:  &memSink{},
		acked: map[uint64]bool{},
		refs:  map[uint64]string{},
	}
	s.refs[0] = renderGraph(t, graph.New("fault"))
	s.sink = NewFaultSink(s.disk, 1)
	for op, f := range schedule {
		s.sink.Schedule(op, f)
	}
	s.wal = NewGroupWAL(s.sink, 0) // each epoch synced as it commits
	detach := AttachWAL(s.g, s.wal)
	defer detach()

	const rounds = 12
	for i := 0; i < rounds; i++ {
		switch {
		case i < 2 || i%3 == 1:
			n := s.g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
			s.nodes = append(s.nodes, n.ID)
		case i%3 == 2:
			s.g.MustAddEdge(s.nodes[len(s.nodes)-2], s.nodes[len(s.nodes)-1],
				[]string{"E"}, graph.Props{"w": graph.NewFloat(float64(i) + 0.5)})
		default:
			if err := s.g.SetNodeProp(s.nodes[0], fmt.Sprintf("k%d", i), graph.NewString("v")); err != nil {
				t.Fatal(err)
			}
		}
		epoch := s.g.Epoch()
		err := s.wal.Commit()
		s.acked[epoch] = err == nil
		s.refs[epoch] = renderGraph(t, s.g)
		if err != nil {
			var pe *WALPoisonedError
			if !errors.As(err, &pe) {
				t.Fatalf("epoch %d: commit error is %T (%v), want *WALPoisonedError", epoch, err, err)
			}
			if s.wal.Poisoned() == nil {
				t.Fatalf("epoch %d: commit failed but Poisoned() is nil", epoch)
			}
		}
	}
	_ = s.wal.Close()
	return s
}

// verifyScenario checks the durability contract against the synced disk
// prefix: recovery restores exactly a prefix of whole epochs, every acked
// epoch is inside it, and the graph still serves reads (and non-logged
// writes) regardless of poisoning.
func verifyScenario(t *testing.T, s *faultScenario, label string) {
	t.Helper()
	rec, info, err := RecoverReplay("fault", bytes.NewReader(s.disk.SyncedBytes()))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	ref, ok := s.refs[info.Epoch]
	if !ok {
		t.Fatalf("%s: recovered to unknown epoch %d", label, info.Epoch)
	}
	if got := renderGraph(t, rec); got != ref {
		t.Fatalf("%s: recovered graph != committed state at epoch %d", label, info.Epoch)
	}
	for e, acked := range s.acked {
		if acked && info.Epoch < e {
			t.Fatalf("%s: epoch %d was acknowledged but recovery stopped at %d", label, e, info.Epoch)
		}
	}
	// Reads never block on a poisoned WAL: memory stays primary.
	if n := s.g.NodeCount(); n == 0 {
		t.Fatalf("%s: graph lost its nodes", label)
	}
	before := s.g.NodeCount()
	s.g.AddNode([]string{"Unlogged"}, nil)
	if s.g.NodeCount() != before+1 {
		t.Fatalf("%s: non-logged write failed after fault", label)
	}
}

// TestWALFaultInjectionEverySchedule schedules each fault kind at every
// operation boundary of the multi-epoch log — the op-granularity mirror
// of the every-byte-offset crash suite — and asserts the contract at each:
// acked ⇒ recoverable, unacked ⇒ cleanly errored, reads never blocked.
func TestWALFaultInjectionEverySchedule(t *testing.T) {
	clean := runFaultScenario(t, nil)
	totalOps := clean.sink.Ops()
	if totalOps < 10 {
		t.Fatalf("clean run saw only %d sink ops, want a real multi-epoch log", totalOps)
	}
	for e, acked := range clean.acked {
		if !acked {
			t.Fatalf("clean run failed to ack epoch %d", e)
		}
	}
	verifyScenario(t, clean, "clean")

	kinds := []FaultKind{FaultWriteErr, FaultShortWrite, FaultSyncErr, FaultENOSPC}
	for _, kind := range kinds {
		for op := 0; op < totalOps; op++ {
			label := fmt.Sprintf("%s@op%d", kind, op)
			s := runFaultScenario(t, map[int]Fault{op: {Kind: kind}})
			if s.sink.Injected() != 1 {
				t.Fatalf("%s: injected %d faults, want 1", label, s.sink.Injected())
			}
			verifyScenario(t, s, label)
		}
	}
}

// TestWALFaultLatencyOnly: latency faults delay but never fail — every
// epoch still acks and recovers.
func TestWALFaultLatencyOnly(t *testing.T) {
	s := runFaultScenario(t, map[int]Fault{
		2: {Kind: FaultLatency, Latency: 2 * time.Millisecond},
		7: {Kind: FaultLatency, Latency: 2 * time.Millisecond},
	})
	for e, acked := range s.acked {
		if !acked {
			t.Fatalf("latency fault failed epoch %d", e)
		}
	}
	verifyScenario(t, s, "latency")
}

// TestWALFaultRandomSchedules: seeded multi-fault schedules keep the same
// contract — determinism comes from the sink's seed.
func TestWALFaultRandomSchedules(t *testing.T) {
	clean := runFaultScenario(t, nil)
	totalOps := clean.sink.Ops()
	for seed := int64(1); seed <= 8; seed++ {
		sink := NewFaultSink(&memSink{}, seed)
		sink.RandomSchedule(3, totalOps, FaultWriteErr, FaultSyncErr, FaultShortWrite)
		// Re-run the scenario with the pre-armed schedule copied over.
		sched := map[int]Fault{}
		sink.mu.Lock()
		for op, f := range sink.schedule {
			sched[op] = f
		}
		sink.mu.Unlock()
		got := runFaultScenario(t, sched)
		verifyScenario(t, got, fmt.Sprintf("random-seed%d", seed))
	}
}

// TestReattachWALResumesDurability: after a fault poisons the WAL, the
// graph keeps serving (reads and writes), and ReattachWAL on a fresh sink
// bootstraps the full state so the new log alone recovers everything —
// including the epochs the poisoned log lost.
func TestReattachWALResumesDurability(t *testing.T) {
	// Poison the first WAL early: its first flush dies.
	s := runFaultScenario(t, map[int]Fault{0: {Kind: FaultWriteErr}})
	if s.wal.Poisoned() == nil {
		t.Fatal("first WAL should be poisoned")
	}
	ackedAny := false
	for _, a := range s.acked {
		ackedAny = ackedAny || a
	}
	if ackedAny {
		t.Fatal("no epoch should have been acked after op-0 poisoning")
	}

	// The graph kept every mutation in memory; reattach on a healthy sink.
	disk2 := &memSink{}
	wal2 := NewGroupWAL(NewFaultSink(disk2, 2), 0)
	detach2, err := ReattachWAL(s.g, wal2)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}

	// Durable logging has resumed: new epochs ack and recover.
	n := s.g.AddNode([]string{"AfterReattach"}, graph.Props{"ok": graph.NewBool(true)})
	s.nodes = append(s.nodes, n.ID)
	if err := wal2.Commit(); err != nil {
		t.Fatalf("commit after reattach: %v", err)
	}
	detach2()
	if err := wal2.Close(); err != nil {
		t.Fatalf("close after reattach: %v", err)
	}

	rec, info, err := RecoverReplay("fault", bytes.NewReader(disk2.SyncedBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != s.g.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", info.Epoch, s.g.Epoch())
	}
	// Normalize the live graph through its own bootstrap frame so IDs are
	// replay-remapped identically, then compare renders.
	want := recoverWhole(t, "fault", logOf(t, bootstrapDelta(s.g)))
	if renderGraph(t, rec) != renderGraph(t, want) {
		t.Fatal("recovery of the reattached WAL != live graph state")
	}
}
