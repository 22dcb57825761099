package storage

// FaultSink is a deterministic storage-fault injector: it wraps the WAL's
// io.Writer (and Syncer) and fails, truncates, or delays scheduled
// operations. Chaos tests use it to prove the durability contract — a
// Commit acknowledged through any fault schedule must be recoverable, a
// Commit that errored may be lost — without touching a real filesystem.
//
// Faults are addressed by operation index: every Write and every Sync the
// sink sees increments one shared op counter, and an op whose index
// appears in the schedule suffers its fault instead of (or, for latency,
// before) reaching the underlying writer. Schedules are either explicit
// (Schedule) or seeded-random (RandomSchedule), both fully deterministic.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the injectable storage faults.
type FaultKind int

const (
	// FaultWriteErr fails a Write outright: no bytes reach the sink.
	FaultWriteErr FaultKind = iota
	// FaultShortWrite persists only the first half of the buffer, then
	// reports a short write — a torn record, exactly what a crash
	// mid-write leaves on disk.
	FaultShortWrite
	// FaultSyncErr fails a Sync: the buffered bytes reached the sink but
	// durability was never confirmed.
	FaultSyncErr
	// FaultENOSPC fails a Write with ErrNoSpace, the disk-full condition.
	FaultENOSPC
	// FaultLatency delays the op, then lets it proceed normally. The only
	// kind that does not error.
	FaultLatency
)

func (k FaultKind) String() string {
	switch k {
	case FaultWriteErr:
		return "write-error"
	case FaultShortWrite:
		return "short-write"
	case FaultSyncErr:
		return "sync-error"
	case FaultENOSPC:
		return "enospc"
	case FaultLatency:
		return "latency"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Injected fault errors. ErrNoSpace stands in for the kernel's ENOSPC so
// tests need no platform-specific errno plumbing.
var (
	ErrInjectedWrite = errors.New("storage: injected write fault")
	ErrInjectedSync  = errors.New("storage: injected sync fault")
	ErrNoSpace       = errors.New("storage: injected no space left on device")
)

// Fault is one scheduled fault.
type Fault struct {
	Kind FaultKind
	// Latency delays the op before it proceeds (FaultLatency) or before
	// it fails (other kinds, optional).
	Latency time.Duration
}

// FaultSink wraps an io.Writer with scheduled fault injection. It
// implements Syncer regardless of the underlying writer; Sync on a
// non-Syncer sink is a healthy no-op (matching NewGroupWAL's own detection —
// wrap a Syncer to exercise sync faults).
type FaultSink struct {
	mu       sync.Mutex
	w        io.Writer
	syncer   Syncer
	rng      *rand.Rand
	schedule map[int]Fault
	ops      int
	injected int
	healed   bool
}

// NewFaultSink wraps w with a fault injector seeded for deterministic
// random scheduling.
func NewFaultSink(w io.Writer, seed int64) *FaultSink {
	s := &FaultSink{w: w, rng: rand.New(rand.NewSource(seed)), schedule: map[int]Fault{}}
	if sy, ok := w.(Syncer); ok {
		s.syncer = sy
	}
	return s
}

// Schedule arms fault f at operation index op (0-based, counting every
// Write and Sync the sink sees).
func (s *FaultSink) Schedule(op int, f Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schedule[op] = f
}

// RandomSchedule arms n faults at distinct op indices drawn uniformly
// from [0, maxOp), with kinds cycled from kinds — deterministic in the
// sink's seed.
func (s *FaultSink) RandomSchedule(n, maxOp int, kinds ...FaultKind) {
	if len(kinds) == 0 || maxOp <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.schedule[s.rng.Intn(maxOp)] = Fault{Kind: kinds[i%len(kinds)]}
	}
}

// Heal disarms every remaining fault: subsequent ops pass through
// untouched. The op and injection counters keep counting.
func (s *FaultSink) Heal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healed = true
}

// Ops returns how many operations (writes + syncs) the sink has seen;
// Injected how many suffered a fault.
func (s *FaultSink) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Injected returns the number of operations that suffered a fault.
func (s *FaultSink) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// take claims the next op index and returns its scheduled fault, if any.
func (s *FaultSink) take() (Fault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.ops
	s.ops++
	if s.healed {
		return Fault{}, false
	}
	f, ok := s.schedule[op]
	if ok {
		s.injected++
	}
	return f, ok
}

// Write implements io.Writer with fault injection.
func (s *FaultSink) Write(p []byte) (int, error) {
	f, ok := s.take()
	if !ok {
		return s.w.Write(p)
	}
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	switch f.Kind {
	case FaultWriteErr:
		return 0, ErrInjectedWrite
	case FaultENOSPC:
		return 0, ErrNoSpace
	case FaultShortWrite:
		// Persist a prefix, then report the tear: the sink now holds a
		// torn record, exactly the shape RecoverReplay must tolerate.
		n, err := s.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	default: // FaultLatency, or sync kinds landing on a write op
		return s.w.Write(p)
	}
}

// Sync implements Syncer with fault injection.
func (s *FaultSink) Sync() error {
	f, ok := s.take()
	if !ok {
		return s.syncThrough()
	}
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	switch f.Kind {
	case FaultSyncErr, FaultWriteErr, FaultENOSPC:
		return ErrInjectedSync
	default:
		return s.syncThrough()
	}
}

func (s *FaultSink) syncThrough() error {
	if s.syncer != nil {
		return s.syncer.Sync()
	}
	return nil
}
