package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// crashSink is an in-memory WAL sink that models a crash-prone disk: Write
// lands in a volatile buffer, Sync moves the high-water mark of what would
// survive a crash. durableBytes is "the disk after pulling the plug".
type crashSink struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	synced int
	syncs  int
}

func (s *crashSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *crashSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = s.buf.Len()
	s.syncs++
	return nil
}

func (s *crashSink) durableBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()[:s.synced]...)
}

func (s *crashSink) allBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// fidelityProps exercises every value kind, including the adversarial
// cases: whole floats (marshal as bare ints), int64 beyond float64's 2^53
// integer range, and nested lists mixing all of it.
func fidelityProps() graph.Props {
	return graph.Props{
		"i":     graph.NewInt(42),
		"big":   graph.NewInt(int64(1)<<62 + 3),
		"neg":   graph.NewInt(-9007199254740993), // 2^53+1, float64-unrepresentable
		"f":     graph.NewFloat(3.25),
		"whole": graph.NewFloat(1.0),
		"tiny":  graph.NewFloat(5e-324),
		"b":     graph.NewBool(true),
		"s":     graph.NewString("héllo \"wal\"\nline"),
		"list": graph.NewList(
			graph.NewInt(1), graph.NewFloat(2.0), graph.NewString("x"),
			graph.NewList(graph.NewBool(false), graph.NewFloat(0.5)),
		),
	}
}

func valuesEqualExact(t *testing.T, path string, want, got graph.Value) {
	t.Helper()
	if want.Kind() != got.Kind() {
		t.Errorf("%s: kind %v -> %v", path, want.Kind(), got.Kind())
		return
	}
	switch want.Kind() {
	case graph.KindInt:
		if want.Int() != got.Int() {
			t.Errorf("%s: int %d -> %d", path, want.Int(), got.Int())
		}
	case graph.KindFloat:
		if math.Float64bits(want.Float()) != math.Float64bits(got.Float()) {
			t.Errorf("%s: float %v -> %v", path, want.Float(), got.Float())
		}
	case graph.KindBool:
		if want.Bool() != got.Bool() {
			t.Errorf("%s: bool %v -> %v", path, want.Bool(), got.Bool())
		}
	case graph.KindString:
		if want.Str() != got.Str() {
			t.Errorf("%s: string %q -> %q", path, want.Str(), got.Str())
		}
	case graph.KindList:
		if len(want.List()) != len(got.List()) {
			t.Errorf("%s: list len %d -> %d", path, len(want.List()), len(got.List()))
			return
		}
		for i := range want.List() {
			valuesEqualExact(t, fmt.Sprintf("%s[%d]", path, i), want.List()[i], got.List()[i])
		}
	}
}

// loggedGraph returns a graph whose epochs are logged, one frame each, to
// the returned buffer by a window-0 WAL.
func loggedGraph(name string) (*graph.Graph, *bytes.Buffer) {
	var buf bytes.Buffer
	g := graph.New(name)
	AttachWAL(g, NewGroupWAL(&buf, 0))
	return g, &buf
}

// logOf writes the given epochs as a WAL and returns its bytes.
func logOf(t testing.TB, ds ...*graph.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	wal := NewGroupWAL(&buf, 0)
	for _, d := range ds {
		if err := wal.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// recoverWhole recovers a log that must be whole: no error, no torn tail.
func recoverWhole(t testing.TB, name string, data []byte) *graph.Graph {
	t.Helper()
	g, info, err := RecoverReplay(name, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatalf("whole log recovered as torn: %+v", info)
	}
	return g
}

// TestWALRoundTripFidelity pins value fidelity: log -> recover is
// value-identical (kind AND bits) for int/float/bool/string/list props —
// whole floats stay floats, big int64s keep every bit.
func TestWALRoundTripFidelity(t *testing.T) {
	g, buf := loggedGraph("fid")
	props := fidelityProps()
	n := g.AddNode([]string{"N"}, props)
	if err := g.SetNodeProp(n.ID, "set-whole", graph.NewFloat(7.0)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(n.ID, "set-big", graph.NewInt(1<<61)); err != nil {
		t.Fatal(err)
	}

	got := recoverWhole(t, "fid", buf.Bytes())
	rn := got.Node(got.Nodes()[0])
	for k, want := range props {
		valuesEqualExact(t, k, want, rn.Prop(k))
	}
	valuesEqualExact(t, "set-whole", graph.NewFloat(7.0), rn.Prop("set-whole"))
	valuesEqualExact(t, "set-big", graph.NewInt(1<<61), rn.Prop("set-big"))
}

// TestWALRoundTripFidelityProperty fuzzes random value trees through
// log -> recover and demands exact identity.
func TestWALRoundTripFidelityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var randomValue func(depth int) graph.Value
	randomValue = func(depth int) graph.Value {
		switch k := rng.Intn(6); {
		case k == 0:
			return graph.NewInt(rng.Int63() - rng.Int63())
		case k == 1:
			// Mix whole and fractional floats deliberately.
			if rng.Intn(2) == 0 {
				return graph.NewFloat(float64(rng.Intn(100)))
			}
			return graph.NewFloat(rng.NormFloat64())
		case k == 2:
			return graph.NewBool(rng.Intn(2) == 0)
		case k == 3:
			return graph.NewString(fmt.Sprintf("s%d\n\"%d\"", rng.Intn(1000), rng.Intn(1000)))
		case k == 4 && depth < 2:
			n := rng.Intn(4)
			elems := make([]graph.Value, n)
			for i := range elems {
				elems[i] = randomValue(depth + 1)
			}
			return graph.NewList(elems...)
		default:
			return graph.NewInt(int64(rng.Intn(10)))
		}
	}

	for trial := 0; trial < 50; trial++ {
		g, buf := loggedGraph("prop")
		props := graph.Props{}
		for i := 0; i < 1+rng.Intn(5); i++ {
			props[fmt.Sprintf("k%d", i)] = randomValue(0)
		}
		g.AddNode([]string{"N"}, props)
		got := recoverWhole(t, "prop", buf.Bytes())
		rn := got.Node(got.Nodes()[0])
		for k, want := range props {
			valuesEqualExact(t, fmt.Sprintf("trial %d %s", trial, k), want, rn.Prop(k))
		}
	}
}

// buildEpochLog writes a WAL with a mix of single-mutator epochs and a
// multi-op batch epoch (with a cascading removal), returning the log bytes.
func buildEpochLog(t testing.TB) []byte {
	t.Helper()
	g, buf := loggedGraph("crash")
	a := g.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(1), "w": graph.NewFloat(1.0)})
	bNode := g.AddNode([]string{"Tweet"}, nil)
	if _, err := g.AddEdge(a.ID, bNode.ID, []string{"POSTS"}, graph.Props{"at": graph.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProp(a.ID, "name", graph.NewString("alice")); err != nil {
		t.Fatal(err)
	}

	// One batch epoch: adds, an edge, a prop, and a cascading removal.
	b := g.NewBatch()
	c := b.AddNode([]string{"Temp"}, nil)
	d := b.AddNode([]string{"User"}, graph.Props{"id": graph.NewInt(2)})
	if _, err := b.AddEdge(c.ID, d.ID, []string{"REF"}, nil); err != nil {
		t.Fatal(err)
	}
	b.SetNodeProp(d.ID, "name", graph.NewString("bob"))
	b.RemoveNode(c.ID) // cascades over the REF edge inside the same epoch
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := g.AddNodeLabels(a.ID, "Admin"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameEnds returns the byte offset just past each frame of a whole log —
// the valid recovery points.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for rest := data; len(rest) > 0; {
		_, next, ok := nextFrame(rest)
		if !ok {
			t.Fatalf("bad frame at offset %d", len(data)-len(rest))
		}
		rest = next
		ends = append(ends, len(data)-len(rest))
	}
	return ends
}

func renderGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCrashRecoveryEveryOffset simulates a torn WAL tail at EVERY byte
// offset of the log and asserts RecoverReplay reconstructs exactly the
// longest run of complete frames that fits — never a half-epoch, never
// less than the last complete frame — and reports Torn exactly when the
// cut falls off a frame boundary.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	data := buildEpochLog(t)
	ends := frameEnds(t, data)
	if len(ends) < 3 {
		t.Fatalf("log has %d frames, want several", len(ends))
	}

	// Reference graphs: recovery of each whole prefix.
	refs := map[int]string{0: renderGraph(t, graph.New("crash"))}
	for _, end := range ends {
		refs[end] = renderGraph(t, recoverWhole(t, "crash", data[:end]))
	}

	for cut := 0; cut <= len(data); cut++ {
		// The expected recovery point: last frame end <= cut.
		want := 0
		for _, end := range ends {
			if end <= cut {
				want = end
			}
		}
		g, info, err := RecoverReplay("crash", bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := renderGraph(t, g); got != refs[want] {
			t.Fatalf("cut %d: recovered graph != whole-frame prefix (want prefix end %d)\n got: %s\nwant: %s",
				cut, want, got, refs[want])
		}
		if wantTorn := cut != want; info.Torn != wantTorn {
			t.Errorf("cut %d: Torn = %v, want %v", cut, info.Torn, wantTorn)
		}
	}
}

// TestRecoverReplayMidFileCorruption flips each byte of the third frame in
// turn: the CRC (or the length check) catches every flip, and recovery
// keeps exactly the two frames before it and drops the rest.
func TestRecoverReplayMidFileCorruption(t *testing.T) {
	data := buildEpochLog(t)
	ends := frameEnds(t, data)
	want := renderGraph(t, recoverWhole(t, "crash", data[:ends[1]]))
	for at := ends[1]; at < ends[2]; at++ {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0xff

		g, info, err := RecoverReplay("crash", bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("flip at %d: %v", at, err)
		}
		if !info.Torn {
			t.Errorf("flip at %d: corruption not flagged as torn", at)
		}
		if renderGraph(t, g) != want {
			t.Errorf("flip at %d: recovery after corruption != the frames before it", at)
		}
	}
}

// TestRecoverReplayNeverAllocatesClaimedLength: a frame header claiming
// far more bytes than the log holds is a torn tail, found without
// allocating the claimed length.
func TestRecoverReplayNeverAllocatesClaimedLength(t *testing.T) {
	data := buildEpochLog(t)
	whole := renderGraph(t, recoverWhole(t, "crash", data))
	huge := append(append([]byte(nil), data...), binary.AppendUvarint(nil, 1<<40)...)
	huge = append(huge, 1, 2, 3, 4, 5)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, info, err := RecoverReplay("crash", bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if err != nil || !info.Torn {
		t.Fatalf("huge claimed length: err %v, info %+v", err, info)
	}
	if renderGraph(t, g) != whole {
		t.Error("huge claimed length changed the recovered prefix")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("recovery allocated %d bytes", grew)
	}
}

// TestRecoverReplayZeroFilledTail: a crash can leave the file longer than
// the data written to it, zero-filled; that tail is torn, not an error.
func TestRecoverReplayZeroFilledTail(t *testing.T) {
	data := buildEpochLog(t)
	whole := renderGraph(t, recoverWhole(t, "crash", data))
	for _, zeros := range []int{1, 5, 4096} {
		g, info, err := RecoverReplay("crash", bytes.NewReader(append(data[:len(data):len(data)], make([]byte, zeros)...)))
		if err != nil || !info.Torn || renderGraph(t, g) != whole {
			t.Errorf("%d zero bytes: err %v, info %+v", zeros, err, info)
		}
	}
}

// FuzzRecoverReplay: arbitrary bytes never panic recovery, and the torn
// flag agrees with an independent frame walk — a frame whose claimed
// length is zero or runs past the input, or whose CRC fails, ends the
// prefix as torn.
// Each input is also wrapped in one valid frame, so the payload decoder
// sees arbitrary bytes behind a passing CRC; it may reject them, but must
// not panic.
func FuzzRecoverReplay(f *testing.F) {
	data := buildEpochLog(f)
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<62))
	table := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		wantTorn := false
		for rest := data; len(rest) > 0; {
			n, k := binary.Uvarint(rest)
			if k <= 0 || n == 0 || len(rest)-k < 4 || n > uint64(len(rest)-k-4) {
				wantTorn = true
				break
			}
			body := rest[k+4 : k+4+int(n)]
			if crc32.Checksum(body, table) != binary.LittleEndian.Uint32(rest[k:]) {
				wantTorn = true
				break
			}
			rest = rest[k+4+int(n):]
		}
		_, info, err := RecoverReplay("fuzz", bytes.NewReader(data))
		if err == nil && info.Torn != wantTorn {
			t.Fatalf("Torn = %v, want %v", info.Torn, wantTorn)
		}
		if _, info, err := RecoverReplay("fuzz", bytes.NewReader(appendFrame(nil, data))); err == nil && info.Torn != (len(data) == 0) {
			t.Fatalf("one whole frame of %d bytes: Torn = %v", len(data), info.Torn)
		}
	})
}

// TestEagerWindowSyncsEachEpoch: with window 0 and no Commit or Close,
// each epoch is synced before its commit returns, so the synced bytes
// alone recover every committed epoch.
func TestEagerWindowSyncsEachEpoch(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, 0)
	g := graph.New("eager")
	defer AttachWAL(g, wal)()
	for i := 1; i <= 3; i++ {
		g.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
		got, info, err := RecoverReplay("eager", bytes.NewReader(sink.durableBytes()))
		if err != nil {
			t.Fatal(err)
		}
		if info.Torn || info.Epoch != g.Epoch() || got.NodeCount() != i {
			t.Fatalf("after %d commits the synced log recovers %d nodes (info %+v, graph epoch %d)",
				i, got.NodeCount(), info, g.Epoch())
		}
	}
	if sink.syncs != 3 {
		t.Errorf("%d syncs for 3 epochs, want one each", sink.syncs)
	}
}

// TestGroupCommitNeverAcksUnflushedEpoch drives a group WAL over a
// crash-modeling sink with an effectively disabled timer: the ONLY way an
// epoch becomes durable is the Commit barrier. After every acknowledged
// commit, a simulated crash (keeping only synced bytes) must recover that
// epoch.
func TestGroupCommitNeverAcksUnflushedEpoch(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, time.Hour)
	defer wal.Close()
	g := graph.New("ack")
	defer AttachWAL(g, wal)()

	var ids []graph.ID
	for i := 0; i < 10; i++ {
		b := g.NewBatch()
		n := b.AddNode([]string{"N"}, graph.Props{"i": graph.NewInt(int64(i))})
		if len(ids) > 0 {
			if _, err := b.AddEdge(ids[len(ids)-1], n.ID, []string{"R"}, nil); err != nil {
				t.Fatal(err)
			}
		}
		d, err := b.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Commit(); err != nil { // ack: must imply durability
			t.Fatal(err)
		}
		ids = append(ids, n.ID)

		rg, info, rerr := RecoverReplay("ack", bytes.NewReader(sink.durableBytes()))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if info.Epoch != d.Epoch {
			t.Fatalf("iter %d: acked epoch %d but crash recovers epoch %d", i, d.Epoch, info.Epoch)
		}
		if rg.NodeCount() != i+1 {
			t.Fatalf("iter %d: crash recovers %d nodes", i, rg.NodeCount())
		}
	}
	if sink.syncs == 0 {
		t.Fatal("no syncs observed")
	}
}

// TestGroupCommitCoalesces shows the point of group commit: many epochs
// from concurrent writers share fsyncs instead of one sync per epoch.
func TestGroupCommitCoalesces(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, 2*time.Millisecond)
	g := graph.New("coalesce")
	detach := AttachWAL(g, wal)
	defer detach()

	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.AddNode([]string{"N"}, graph.Props{"w": graph.NewInt(int64(w))})
			}
		}(w)
	}
	wg.Wait()
	if err := wal.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	const frames = writers * per // one frame per epoch
	if wal.LSN() != frames {
		t.Fatalf("wal frames = %d, want %d", wal.LSN(), frames)
	}
	if sink.syncs >= frames {
		t.Errorf("group commit did not coalesce: %d syncs for %d frames", sink.syncs, frames)
	}
	if got := recoverWhole(t, "coalesce", sink.allBytes()); got.NodeCount() != writers*per {
		t.Fatalf("recovered %d nodes", got.NodeCount())
	}
}

// TestGroupWALCloseAndErrors covers lifecycle edges: append-after-close,
// commit-after-close, double close.
func TestGroupWALCloseAndErrors(t *testing.T) {
	sink := &crashSink{}
	wal := NewGroupWAL(sink, time.Hour)
	if err := wal.Append(&graph.Delta{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wal.Durable() != wal.LSN() {
		t.Error("close did not flush")
	}
	if err := wal.Append(&graph.Delta{Epoch: 2}); err != ErrWALClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := wal.Commit(); err != nil {
		t.Errorf("commit after close: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
