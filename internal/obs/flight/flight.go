// Package flight is the recovery flight recorder: a lock-free, bounded
// ring of structured decision events recording *why* the engine did what
// it did — redo apply/skip with the dirty-table reason, install-graph
// ValueAfter resolutions, ship batch send/Lost/rewind and standby
// accept/dup/gap, and checkpoint / truncation horizon moves.
//
// Like the rest of internal/obs, every handle is nil-safe: methods on a
// nil *Recorder are no-ops, so instrumented code pays one pointer test
// when recording is disabled.  When enabled, each event costs one
// allocation and one atomic pointer swap; writers never block each other
// (the ring is a []atomic.Pointer[Event] indexed by an atomic sequence
// counter), so emission is safe from any goroutine including code running
// under foreign mutexes.
//
// A recorder can spill events to a crash-tolerant file (see spill.go):
// length-prefixed, checksummed frames whose torn tail is trimmed on
// reopen exactly like the WAL's, so the recorder survives the very crash
// it must explain.
package flight

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/op"
)

// Kind classifies a decision event.
type Kind uint8

const (
	// KindRedoDecision is one DecideRedo evaluation during recovery or
	// standby apply: Dec says redo/skip-installed/skip-unexposed/voided,
	// LSN is the operation, Object/Ref carry the reason (the installed
	// witness and its vSI, or the dirty object and its rSI).
	KindRedoDecision Kind = iota + 1
	// KindValueResolve is an install-graph ValueAfter resolution: the
	// replay chose the value written at LSN as object Object's installed
	// value.
	KindValueResolve
	// Retired kinds 3–6 (log absorption and stream merges) keep their
	// numbers so spill files written before their removal still decode to
	// the same kinds after them.
	_
	_
	_
	_
	// KindShipBatch is a sender-side batch outcome (Dec sent/lost/rewind)
	// for the batch [LSN, Ref]; on rewind Ref is the ack's Want cursor.
	KindShipBatch
	// KindShipApply is a standby-side delivery outcome (Dec
	// accept/dup/gap) for the record at LSN.
	KindShipApply
	// KindCheckpoint is a checkpoint record landing at LSN with N dirty
	// entries.
	KindCheckpoint
	// KindTruncate is the truncation horizon moving: records below LSN
	// are dropped.
	KindTruncate
)

func (k Kind) String() string {
	switch k {
	case KindRedoDecision:
		return "redo-decision"
	case KindValueResolve:
		return "value-resolve"
	case KindShipBatch:
		return "ship-batch"
	case KindShipApply:
		return "ship-apply"
	case KindCheckpoint:
		return "checkpoint"
	case KindTruncate:
		return "truncate"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Decision is the outcome recorded by an event, qualified by its Kind.
type Decision uint8

const (
	DecNone Decision = iota
	// Redo decisions (KindRedoDecision), matching recovery's trace names.
	DecRedo
	DecSkipInstalled
	DecSkipUnexposed
	DecVoided
	// Sender batch outcomes (KindShipBatch).
	DecSent
	DecLost
	DecRewind
	// Standby delivery outcomes (KindShipApply).
	DecAccept
	DecDup
	DecGap
)

func (d Decision) String() string {
	switch d {
	case DecNone:
		return ""
	case DecRedo:
		return "redo"
	case DecSkipInstalled:
		return "skip-installed"
	case DecSkipUnexposed:
		return "skip-unexposed"
	case DecVoided:
		return "voided"
	case DecSent:
		return "sent"
	case DecLost:
		return "lost"
	case DecRewind:
		return "rewind"
	case DecAccept:
		return "accept"
	case DecDup:
		return "dup"
	case DecGap:
		return "gap"
	}
	return fmt.Sprintf("dec(%d)", uint8(d))
}

// Event is one recorded decision.  Field meaning depends on Kind (see the
// Kind constants); Seq is the global emission order and At the offset
// from the recorder's start, comparable with obs.Tracer timestamps taken
// in the same process.
type Event struct {
	Seq    uint64
	At     time.Duration
	Kind   Kind
	Dec    Decision
	LSN    op.SI
	Ref    op.SI
	Object op.ObjectID
	N      int64
	Actor  string
}

// String renders the event as one forensic log line.
func (ev Event) String() string {
	s := fmt.Sprintf("#%d %s", ev.Seq, ev.Kind)
	if ev.Dec != DecNone {
		s += " " + ev.Dec.String()
	}
	if ev.LSN != op.NilSI || ev.Kind == KindTruncate {
		s += fmt.Sprintf(" lsn=%d", ev.LSN)
	}
	if ev.Ref != op.NilSI {
		s += fmt.Sprintf(" ref=%d", ev.Ref)
	}
	if ev.Object != "" {
		s += fmt.Sprintf(" obj=%s", ev.Object)
	}
	if ev.N != 0 {
		s += fmt.Sprintf(" n=%d", ev.N)
	}
	if ev.Actor != "" {
		s += " actor=" + ev.Actor
	}
	return s
}

// Recorder is the flight recorder.  The zero value is not usable; build
// one with NewRecorder or OpenSpill.  All methods are safe on a nil
// receiver and from concurrent goroutines.
type Recorder struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	seq   atomic.Uint64

	clock func() time.Duration

	events     atomic.Int64
	drops      atomic.Int64
	spillBytes atomic.Int64

	spillMu sync.Mutex
	spillOn atomic.Bool
	spill   *spillFile
}

// DefaultRingSize bounds the in-memory event ring when callers pass 0.
const DefaultRingSize = 1 << 12

// NewRecorder returns a ring-only recorder holding the last `size`
// events (rounded up to a power of two; 0 means DefaultRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	start := time.Now()
	return &Recorder{
		slots: make([]atomic.Pointer[Event], n),
		mask:  uint64(n - 1),
		clock: func() time.Duration { return time.Since(start) },
	}
}

// emit stamps and publishes one event.  Lock-free on the ring; when a
// spill file is attached the encoded frame is buffered under spillMu
// (still safe under foreign mutexes — spillMu is a leaf lock).  The
// event is copied to the heap only after the nil check, so a nil
// recorder allocates nothing.
func (r *Recorder) emit(ev Event) {
	if r == nil {
		return
	}
	p := new(Event)
	*p = ev
	p.Seq = r.seq.Add(1) - 1
	p.At = r.clock()
	if old := r.slots[p.Seq&r.mask].Swap(p); old != nil {
		r.drops.Add(1)
	}
	r.events.Add(1)
	if r.spillOn.Load() {
		r.spillAppend(p)
	}
}

// Events returns the ring's surviving events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Counters reports lifetime totals: events emitted, ring slots
// overwritten before being read, and bytes durably spilled.
func (r *Recorder) Counters() (events, ringDrops, spillBytes int64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.events.Load(), r.drops.Load(), r.spillBytes.Load()
}

// RedoDecision records one DecideRedo outcome.  For skip-installed,
// obj/ref are the witness object and its current vSI; for redo, the
// dirty-table entry and its rSI that exposed the record.
func (r *Recorder) RedoDecision(actor string, lsn op.SI, dec Decision, obj op.ObjectID, ref op.SI) {
	r.emit(Event{Kind: KindRedoDecision, Dec: dec, LSN: lsn, Ref: ref, Object: obj, Actor: actor})
}

// ValueResolve records ValueAfter choosing the write at lsn as obj's
// installed value.
func (r *Recorder) ValueResolve(lsn op.SI, obj op.ObjectID) {
	r.emit(Event{Kind: KindValueResolve, LSN: lsn, Object: obj, Actor: "installgraph"})
}

// ShipBatch records a sender-side batch outcome for [first, last]; on
// DecRewind, last is the ack's Want cursor the sender rewound to.
func (r *Recorder) ShipBatch(dec Decision, first, last op.SI, n int64) {
	r.emit(Event{Kind: KindShipBatch, Dec: dec, LSN: first, Ref: last, N: n, Actor: "sender"})
}

// ShipApply records a standby-side delivery outcome for the record at
// lsn; ref is the standby's want cursor at the time.
func (r *Recorder) ShipApply(dec Decision, lsn, want op.SI) {
	r.emit(Event{Kind: KindShipApply, Dec: dec, LSN: lsn, Ref: want, Actor: "standby"})
}

// Checkpoint records a checkpoint landing at lsn covering n dirty
// entries.
func (r *Recorder) Checkpoint(lsn op.SI, n int64) {
	r.emit(Event{Kind: KindCheckpoint, LSN: lsn, N: n, Actor: "ckpt"})
}

// Truncate records the truncation horizon moving to lsn.
func (r *Recorder) Truncate(lsn op.SI) {
	r.emit(Event{Kind: KindTruncate, LSN: lsn, Actor: "ckpt"})
}
