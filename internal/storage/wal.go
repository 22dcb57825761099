package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"github.com/graphrules/graphrules/internal/graph"
)

// WAL layout: one frame per committed epoch,
//
//	uvarint length | CRC-32C of payload (4 bytes, little-endian) | payload
//
// where the payload is the epoch number (uvarint) followed by the epoch's
// graph.Ops in apply order (see writeOp), encoded with snapshot.go's value
// and props codec. A frame that is complete and passes its CRC is a
// committed epoch.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const crcLen = 4

// appendFrame appends payload to dst as one frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// nextFrame splits the first frame off data. ok is false when data does
// not start with a complete frame whose CRC matches: a torn or corrupt
// tail. The claimed length is checked against data before it is used, so
// a corrupt length is never allocated. Every frame holds at least its
// epoch number, so a zero length, which is how a zero-filled tail reads
// (CRC-32C of nothing is 0), is torn too.
func nextFrame(data []byte) (payload, rest []byte, ok bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || len(data)-k < crcLen || n > uint64(len(data)-k-crcLen) {
		return nil, data, false
	}
	sum := binary.LittleEndian.Uint32(data[k:])
	payload = data[k+crcLen : k+crcLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, data, false
	}
	return payload, data[k+crcLen+int(n):], true
}

// writeOp encodes one op as its kind byte followed by: the node (add-node),
// the edge (add-edge), id | key | value (set-node-prop, set-edge-prop),
// id | labels (add-labels) or id (remove-node, remove-edge).
func writeOp(w byteWriter, op *graph.Op) error {
	w.WriteByte(byte(op.Kind))
	switch op.Kind {
	case graph.OpAddNode:
		return writeNode(w, op.Node)
	case graph.OpAddEdge:
		return writeEdge(w, op.Edge)
	}
	writeUvarint(w, uint64(op.ID))
	switch op.Kind {
	case graph.OpSetNodeProp, graph.OpSetEdgeProp:
		writeString(w, op.Key)
		return writeValue(w, op.Value)
	case graph.OpAddLabels:
		writeStringSlice(w, op.Labels)
	case graph.OpRemoveNode, graph.OpRemoveEdge:
	default:
		return fmt.Errorf("storage: wal: unknown op %v", op.Kind)
	}
	return nil
}

// readOp decodes what writeOp encoded.
func readOp(r byteReader) (graph.Op, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return graph.Op{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	op := graph.Op{Kind: graph.OpKind(kb)}
	switch op.Kind {
	case graph.OpAddNode:
		op.Node, err = readNode(r)
		return op, err
	case graph.OpAddEdge:
		op.Edge, err = readEdge(r)
		return op, err
	case graph.OpSetNodeProp, graph.OpSetEdgeProp, graph.OpAddLabels, graph.OpRemoveNode, graph.OpRemoveEdge:
	default:
		return op, fmt.Errorf("%w: op kind %d", ErrBadSnapshot, kb)
	}
	if op.ID, err = readID(r); err != nil {
		return op, err
	}
	switch op.Kind {
	case graph.OpSetNodeProp, graph.OpSetEdgeProp:
		if op.Key, err = readString(r); err == nil {
			op.Value, err = readValue(r)
		}
	case graph.OpAddLabels:
		op.Labels, err = readStringSlice(r)
	}
	return op, err
}

// Syncer is the optional durability hook of a WAL sink (os.File satisfies
// it). When the sink implements it, a flush is followed by Sync before any
// frame is considered durable.
type Syncer interface{ Sync() error }

// ErrWALClosed is returned by appends to a closed WAL.
var ErrWALClosed = errors.New("storage: wal closed")

// WALPoisonedError is the WAL's typed sticky error: a write, flush or
// fsync failed, so durability can no longer be promised for anything past
// Durable. Every Append and every Commit waiting on a lost window returns
// it; Commits whose frames were already durable before the fault still
// succeed. The graph itself keeps working — only logging is poisoned —
// and ReattachWAL re-establishes durable logging on a fresh sink once
// the fault clears.
type WALPoisonedError struct {
	// Cause is the underlying I/O error.
	Cause error
	// Durable is the sequence number of the last frame that was flushed
	// and synced before the fault: everything at or below it survived.
	Durable uint64
}

func (e *WALPoisonedError) Error() string {
	return fmt.Sprintf("storage: wal poisoned after durable frame %d: %v", e.Durable, e.Cause)
}

func (e *WALPoisonedError) Unwrap() error { return e.Cause }

// WAL is a write-ahead log holding one frame per committed epoch. It is
// safe for concurrent use.
//
// The commit window sets when a frame becomes durable (flushed, and
// synced when the sink is a Syncer):
//
//   - window <= 0: before Append returns. Under AttachWAL, Append runs on
//     the committing goroutine, so an epoch is durable before the commit
//     that produced it returns.
//   - window > 0: appends only buffer, and a background flusher makes them
//     durable in batches at most window apart, so concurrent epochs share
//     one fsync. Durability lags a commit by at most the window; Commit
//     is the barrier for callers that must acknowledge an epoch.
type WAL struct {
	mu      sync.Mutex
	cond    *sync.Cond
	w       *bufio.Writer
	syncer  Syncer
	payload bytes.Buffer // scratch: the epoch being encoded
	frame   []byte       // scratch: its frame
	err     error
	lsn     uint64 // sequence number of the last appended frame
	durable uint64 // sequence number of the last flushed+synced frame
	closed  bool

	kick chan struct{} // nil when window <= 0
	done chan struct{}
	wg   sync.WaitGroup
}

// NewGroupWAL returns a WAL writing to w with the given commit window (see
// WAL). A window > 0 starts the background flusher; Close stops it.
func NewGroupWAL(w io.Writer, window time.Duration) *WAL {
	l := &WAL{w: bufio.NewWriter(w)}
	l.syncer, _ = w.(Syncer)
	l.cond = sync.NewCond(&l.mu)
	if window > 0 {
		l.kick = make(chan struct{}, 1)
		l.done = make(chan struct{})
		l.wg.Add(1)
		go l.flushLoop(window)
	}
	return l
}

func (l *WAL) flushLoop(window time.Duration) {
	defer l.wg.Done()
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
		case <-tick.C:
		}
		l.mu.Lock()
		l.flushLocked()
		l.mu.Unlock()
	}
}

// poisonLocked latches an I/O failure into the typed sticky error,
// recording how far durability actually reached. Called with mu held;
// the first fault wins.
func (l *WAL) poisonLocked(cause error) {
	if l.err == nil {
		l.err = &WALPoisonedError{Cause: cause, Durable: l.durable}
	}
}

// Poisoned returns the WAL's sticky *WALPoisonedError, or nil while the
// log is healthy (or failed for a non-I/O reason).
func (l *WAL) Poisoned() *WALPoisonedError {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pe *WALPoisonedError
	if errors.As(l.err, &pe) {
		return pe
	}
	return nil
}

// flushLocked makes every appended frame durable. Called with mu held.
func (l *WAL) flushLocked() {
	defer l.cond.Broadcast()
	if l.err != nil || l.durable >= l.lsn {
		return
	}
	target := l.lsn
	if err := l.w.Flush(); err != nil {
		l.poisonLocked(err)
		return
	}
	if l.syncer != nil {
		if err := l.syncer.Sync(); err != nil {
			l.poisonLocked(err)
			return
		}
	}
	l.durable = target
}

// Durable returns the sequence number of the last frame known flushed and
// synced.
func (l *WAL) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// LSN returns the sequence number of the last appended frame, which is
// also the number of frames appended.
func (l *WAL) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Err returns the sticky write error, if any.
func (l *WAL) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Append writes one committed epoch as one frame. With window <= 0 the
// frame is durable when Append returns; otherwise it waits for the next
// window tick or Commit barrier.
func (l *WAL) Append(d *graph.Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrWALClosed
	}
	if l.err != nil {
		return l.err
	}
	l.payload.Reset()
	writeUvarint(&l.payload, d.Epoch)
	for i := range d.Ops {
		if err := writeOp(&l.payload, &d.Ops[i]); err != nil {
			l.err = err
			return err
		}
	}
	l.frame = appendFrame(l.frame[:0], l.payload.Bytes())
	if _, err := l.w.Write(l.frame); err != nil {
		l.poisonLocked(err)
		return l.err
	}
	l.lsn++
	if l.kick == nil {
		l.flushLocked()
	}
	return l.err
}

// Commit is the durability barrier: it returns once every frame appended
// before the call is flushed and synced (or with the sticky error). This
// is what "acknowledging an epoch" means under a window > 0 — callers
// must not report an epoch as committed until Commit returns. With
// window <= 0 every frame is already durable, so Commit only reports the
// sticky error.
//
// Under a storage fault the barrier is exact: every Commit whose frames
// were lost in the failed flush window returns the *WALPoisonedError (the
// epoch was never acknowledged, so recovery correctly omits it), while a
// Commit whose frames were already durable before the fault returns nil
// — those epochs were acknowledged by an earlier successful sync and
// survive recovery.
func (l *WAL) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.lsn
	for l.err == nil && l.durable < target {
		if l.kick == nil || l.closed {
			l.flushLocked()
			break
		}
		select {
		case l.kick <- struct{}{}:
		default:
		}
		l.cond.Wait()
	}
	if l.durable >= target {
		return nil
	}
	return l.err
}

// Close stops the background flusher (if any) and flushes outstanding
// frames. Further appends fail with ErrWALClosed.
func (l *WAL) Close() error {
	l.mu.Lock()
	if l.closed {
		defer l.mu.Unlock()
		return l.err
	}
	l.closed = true
	l.mu.Unlock()
	if l.done != nil {
		close(l.done)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	return l.err
}

// AttachWAL subscribes the WAL to the graph's commit stream: every epoch
// is appended as one frame, in epoch order, on the committing goroutine.
// With window <= 0 the epoch is therefore durable before its commit
// returns; with a larger window, call wal.Commit() where durability must
// be acknowledged. Append errors latch into the WAL's sticky error
// (visible via Err/Commit). The returned function detaches the
// subscription.
func AttachWAL(g *graph.Graph, wal *WAL) (detach func()) {
	return g.OnCommit(func(d *graph.Delta) {
		_ = wal.Append(d) // a failure latches into the WAL's sticky error
	})
}

// bootstrapDelta renders the graph's entire current state as one epoch:
// every node then every edge, at the graph's current epoch number.
// Recovering just its frame reproduces the graph, so it opens a fresh WAL
// for a graph that already has history.
func bootstrapDelta(g *graph.Graph) *graph.Delta {
	d := &graph.Delta{Epoch: g.Epoch()}
	g.ForEachNode(func(n *graph.Node) {
		d.Ops = append(d.Ops, graph.Op{Kind: graph.OpAddNode, Node: n})
	})
	g.ForEachEdge(func(e *graph.Edge) {
		d.Ops = append(d.Ops, graph.Op{Kind: graph.OpAddEdge, Edge: e})
	})
	return d
}

// ReattachWAL resumes durable logging on a fresh WAL after the previous
// one was poisoned by a storage fault: it writes the graph's full current
// state as a bootstrap epoch, waits for it to be durable, then attaches
// the commit subscription — so recovering the new log alone restores
// everything, including the epochs the poisoned log lost. The caller must
// quiesce writers between detaching the old WAL and ReattachWAL
// returning, or concurrently committed epochs may predate the
// subscription and go unlogged.
func ReattachWAL(g *graph.Graph, wal *WAL) (detach func(), err error) {
	if err := wal.Append(bootstrapDelta(g)); err != nil {
		return nil, err
	}
	if err := wal.Commit(); err != nil {
		return nil, err
	}
	return AttachWAL(g, wal), nil
}

// RecoveryInfo describes what RecoverReplay reconstructed.
type RecoveryInfo struct {
	Applied int    // ops applied
	Epoch   uint64 // epoch number of the last applied frame (0 if none)
	Torn    bool   // the log ended in a torn or corrupt frame
}

// RecoverReplay rebuilds a graph from a WAL that may end mid-write (a
// crash). It applies the longest prefix of complete frames that pass
// their CRC, each as one graph.Batch, so a recovered epoch is all or
// nothing; the first frame that is cut short or fails its CRC ends the
// prefix, and it and everything after it are dropped (Torn). Node and
// edge IDs in the log are remapped to the rebuilt graph's.
//
// A frame that passes its CRC but does not decode or apply is an error,
// not a torn tail: no crash writes one.
func RecoverReplay(name string, r io.Reader) (*graph.Graph, RecoveryInfo, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("storage: recover: %w", err)
	}
	rp := replayer{g: graph.New(name), nodes: map[graph.ID]graph.ID{}, edges: map[graph.ID]graph.ID{}}
	var info RecoveryInfo
	for frame := 0; len(data) > 0; frame++ {
		payload, rest, ok := nextFrame(data)
		if !ok {
			info.Torn = true
			break
		}
		data = rest
		epoch, n, err := rp.replay(payload)
		if err != nil {
			return nil, info, fmt.Errorf("storage: recover: frame %d: %w", frame, err)
		}
		info.Epoch = epoch
		info.Applied += n
	}
	return rp.g, info, nil
}

// replayer applies frames to g, mapping the log's node and edge IDs to
// g's.
type replayer struct {
	g            *graph.Graph
	nodes, edges map[graph.ID]graph.ID
}

// replay commits one frame's payload as one batch and returns its epoch
// number and op count.
func (rp *replayer) replay(payload []byte) (epoch uint64, ops int, err error) {
	r := bytes.NewReader(payload)
	if epoch, err = readUvarint(r); err != nil {
		return 0, 0, err
	}
	b := rp.g.NewBatch()
	for ; r.Len() > 0; ops++ {
		op, err := readOp(r)
		if err != nil {
			return 0, 0, err
		}
		if err := rp.stage(b, &op); err != nil {
			return 0, 0, err
		}
	}
	if _, err := b.Commit(); err != nil {
		return 0, 0, err
	}
	return epoch, ops, nil
}

// stage buffers one logged op on b, translating its IDs.
func (rp *replayer) stage(b *graph.Batch, op *graph.Op) error {
	switch op.Kind {
	case graph.OpAddNode:
		rp.nodes[op.Node.ID] = b.AddNode(op.Node.Labels, op.Node.Props).ID
		return nil
	case graph.OpAddEdge:
		from, ok1 := rp.nodes[op.Edge.From]
		to, ok2 := rp.nodes[op.Edge.To]
		if !ok1 || !ok2 {
			return fmt.Errorf("edge %d: unknown endpoint", op.Edge.ID)
		}
		e, err := b.AddEdge(from, to, op.Edge.Labels, op.Edge.Props)
		if err != nil {
			return err
		}
		rp.edges[op.Edge.ID] = e.ID
		return nil
	case graph.OpSetEdgeProp, graph.OpRemoveEdge:
		id, ok := rp.edges[op.ID]
		if !ok {
			return fmt.Errorf("unknown edge %d", op.ID)
		}
		if op.Kind == graph.OpRemoveEdge {
			b.RemoveEdge(id)
		} else {
			b.SetEdgeProp(id, op.Key, op.Value)
		}
		return nil
	}
	id, ok := rp.nodes[op.ID]
	if !ok {
		return fmt.Errorf("unknown node %d", op.ID)
	}
	switch op.Kind {
	case graph.OpSetNodeProp:
		b.SetNodeProp(id, op.Key, op.Value)
	case graph.OpAddLabels:
		b.AddNodeLabels(id, op.Labels...)
	case graph.OpRemoveNode:
		b.RemoveNode(id)
	}
	return nil
}
