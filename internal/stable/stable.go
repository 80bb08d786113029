// Package stable simulates the stable database: the disk-resident versioned
// object store beneath the cache manager.
//
// The store models exactly what the paper's arguments depend on:
//
//   - per-object values with their state identifiers (vSI, the pageLSN
//     analogue stored with each object);
//   - multi-object batch writes under the atomicity mechanisms Section 4
//     compares — shadowing (System R style: write copies, then one atomic
//     pointer swing) and flush transactions (log the values, commit, then
//     update in place);
//   - I/O and byte accounting (object writes, pointer swings, flush-
//     transaction log traffic) that experiments E4/E5 report;
//   - crash injection in the middle of a batch, leaving old state (shadow)
//     or recoverable state (committed flush transaction), matching each
//     mechanism's real behaviour.
//
// The store itself survives Crash; it is the cache and log tail that a crash
// destroys.  Failure injection here models crashes *during* a flush.
package stable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"logicallog/internal/op"
)

// BatchMode selects the multi-object atomicity mechanism for a batch write.
type BatchMode uint8

const (
	// ModeSingle writes exactly one object in place; single-object writes
	// are atomic in the disk model (as a page write is).
	ModeSingle BatchMode = iota
	// ModeShadow writes all objects to shadow locations and then installs
	// them with one atomic pointer swing (System R [3]).  A crash before
	// the swing leaves the old state intact.
	ModeShadow
	// ModeFlushTxn wraps the batch in a flush transaction: the values are
	// written to the flush-transaction log, a commit record is forced, and
	// the objects are then updated in place.  A crash after commit is
	// repaired by RecoverPending; before commit the old state survives.
	ModeFlushTxn

	numBatchModes = iota
)

func (m BatchMode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeShadow:
		return "shadow"
	case ModeFlushTxn:
		return "flushtxn"
	}
	return fmt.Sprintf("BatchMode(%d)", uint8(m))
}

// Entry is one object write (or delete) in a batch.
type Entry struct {
	ID op.ObjectID
	// Val is the new value; ignored when Delete is set.
	Val []byte
	// VSI is the state identifier stored with the object (the lSI of the
	// last installed operation that wrote it).
	VSI op.SI
	// Delete terminates the object.
	Delete bool
}

// Versioned is a stored object value with its state identifier.
type Versioned struct {
	Val []byte
	VSI op.SI
}

// IOStats counts simulated I/O.  All byte counts are value bytes (the
// simulator has no sector geometry).
type IOStats struct {
	// ObjectReads counts object fetches.
	ObjectReads int64
	// ObjectWrites counts in-place or shadow object writes (each entry of
	// a batch counts once; a flush transaction's in-place phase counts
	// again because the mechanism really writes the data twice).
	ObjectWrites int64
	// ObjectWriteBytes totals bytes across ObjectWrites.
	ObjectWriteBytes int64
	// PointerSwings counts shadow-mechanism atomic installs.
	PointerSwings int64
	// FlushTxnLogWrites counts flush-transaction log appends (one per
	// value plus one commit per batch).
	FlushTxnLogWrites int64
	// FlushTxnLogBytes totals flush-transaction log bytes.
	FlushTxnLogBytes int64
	// Batches counts batch operations by mode.
	Batches [numBatchModes]int64
}

// AddTo sets the store's counters in c under their metric names.  A mode's
// batch count is named only once that mode has been used.
func (s IOStats) AddTo(c map[string]int64) {
	c["stable.object_reads"] = s.ObjectReads
	c["stable.object_writes"] = s.ObjectWrites
	c["stable.object_write_bytes"] = s.ObjectWriteBytes
	c["stable.pointer_swings"] = s.PointerSwings
	c["stable.flushtxn_log_writes"] = s.FlushTxnLogWrites
	c["stable.flushtxn_log_bytes"] = s.FlushTxnLogBytes
	for m, n := range s.Batches {
		if n != 0 {
			c["stable.batches."+BatchMode(m).String()] = n
		}
	}
}

// ErrNotFound is returned by Read for absent objects.
var ErrNotFound = errors.New("stable: object not found")

// Store is the simulated stable database.  Safe for concurrent use: reads
// take mu's read lock plus atomic counters, so concurrent redo replayers
// fault objects in side by side; batch writes (and their crash-injection state)
// serialize on batchMu, preserving the single-writer atomicity semantics each
// flush mechanism models, and take mu only to install each entry.
type Store struct {
	mu      sync.RWMutex
	objects map[op.ObjectID]Versioned

	// batchMu serializes WriteBatch, failure injection, and the pending
	// flush transaction.
	batchMu sync.Mutex

	// I/O counters, updated atomically (reads happen outside batchMu).
	objectReads       atomic.Int64
	objectWrites      atomic.Int64
	objectWriteBytes  atomic.Int64
	pointerSwings     atomic.Int64
	flushTxnLogWrites atomic.Int64
	flushTxnLogBytes  atomic.Int64
	batches           [numBatchModes]atomic.Int64

	// probe, when non-nil, is consulted before every simulated device
	// write a batch performs; a non-nil error injects a failure at exactly
	// that write boundary (see SetWriteProbe).  Guarded by batchMu.
	probe WriteProbe

	// pending is a committed-but-unapplied flush transaction, repaired by
	// RecoverPending (a real system replays it from the log at restart).
	// Guarded by batchMu.
	pending []Entry
}

// NewStore returns an empty stable store.
func NewStore() *Store {
	return &Store{objects: make(map[op.ObjectID]Versioned)}
}

// Read fetches an object.  The returned value aliases nothing.
func (s *Store) Read(x op.ObjectID) (Versioned, error) {
	s.mu.RLock()
	v, ok := s.objects[x]
	var val []byte
	if ok {
		val = append([]byte(nil), v.Val...)
	}
	s.mu.RUnlock()
	if !ok {
		return Versioned{}, fmt.Errorf("%w: %q", ErrNotFound, x)
	}
	s.objectReads.Add(1)
	return Versioned{Val: val, VSI: v.VSI}, nil
}

// Contains reports whether x exists without counting an I/O.
func (s *Store) Contains(x op.ObjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[x]
	return ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// IDs returns all object ids in ascending order (no I/O accounting; this is
// a catalog operation).
func (s *Store) IDs() []op.ObjectID {
	s.mu.RLock()
	out := make([]op.ObjectID, 0, len(s.objects))
	for x := range s.objects {
		out = append(out, x)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteProbe is consulted before each simulated device write inside
// WriteBatch — one consult per in-place write, shadow write, pointer swing,
// and flush-transaction log write, in batch order.  Returning a non-nil
// error injects a failure at exactly that I/O boundary, leaving the store
// in the state the real mechanism would leave there.  The fault layer's
// Plan.StableProbe produces deterministic, replayable probes.
type WriteProbe func() error

// SetWriteProbe installs the fault probe; nil removes it.
func (s *Store) SetWriteProbe(p WriteProbe) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	s.probe = p
}

// probeErr consults the write probe, if any.  Caller holds batchMu.
func (s *Store) probeErr() error {
	if s.probe == nil {
		return nil
	}
	return s.probe()
}

// WriteBatch writes entries under the given atomicity mode.
//
// ModeSingle requires exactly one entry.  Under injected failure the store
// is left in the state the real mechanism would leave: unchanged (shadow
// before swing, flush transaction before commit) or fully old with a
// pending repair (flush transaction after commit — see RecoverPending).
func (s *Store) WriteBatch(entries []Entry, mode BatchMode) error {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	if mode == ModeSingle && len(entries) != 1 {
		return fmt.Errorf("stable: ModeSingle batch has %d entries", len(entries))
	}
	if mode >= numBatchModes {
		return fmt.Errorf("stable: unknown batch mode %v", mode)
	}
	s.batches[mode].Add(1)
	switch mode {
	case ModeSingle:
		if err := s.probeErr(); err != nil {
			return fmt.Errorf("stable: single write: %w", err)
		}
		s.applyEntry(entries[0])
		return nil

	case ModeShadow:
		// Phase 1: write shadow copies (costed as object writes).
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				// Old state intact: the swing never happened.
				return fmt.Errorf("stable: shadow write %d: %w", i, err)
			}
			s.objectWrites.Add(1)
			if !e.Delete {
				s.objectWriteBytes.Add(int64(len(e.Val)))
			}
		}
		// Phase 2: atomic pointer swing installs every entry at once.
		if err := s.probeErr(); err != nil {
			return fmt.Errorf("stable: shadow swing: %w", err)
		}
		s.pointerSwings.Add(1)
		for _, e := range entries {
			s.installEntry(e)
		}
		return nil

	case ModeFlushTxn:
		// Phase 1: log each value to the flush-transaction log.
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				// Before commit: old state intact.
				return fmt.Errorf("stable: flush-txn log write %d: %w", i, err)
			}
			s.flushTxnLogWrites.Add(1)
			if !e.Delete {
				s.flushTxnLogBytes.Add(int64(len(e.Val)))
			}
		}
		// Commit record (forced).
		s.flushTxnLogWrites.Add(1)
		s.pending = cloneEntries(entries)
		// Phase 2: in-place writes; a crash here leaves pending set, and
		// RecoverPending finishes the job (idempotently).
		for i, e := range entries {
			if err := s.probeErr(); err != nil {
				return fmt.Errorf("stable: flush-txn in-place write %d: %w", i, err)
			}
			s.applyEntry(e)
		}
		s.pending = nil
		return nil
	}
	return fmt.Errorf("stable: unknown batch mode %v", mode)
}

// applyEntry performs and costs one in-place object write.
func (s *Store) applyEntry(e Entry) {
	s.objectWrites.Add(1)
	if !e.Delete {
		s.objectWriteBytes.Add(int64(len(e.Val)))
	}
	s.installEntry(e)
}

// installEntry mutates state without I/O accounting (shadow swing phase).
func (s *Store) installEntry(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Delete {
		delete(s.objects, e.ID)
		return
	}
	s.objects[e.ID] = Versioned{Val: append([]byte(nil), e.Val...), VSI: e.VSI}
}

// HasPending reports whether a committed flush transaction awaits repair.
func (s *Store) HasPending() bool {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.pending != nil
}

// RecoverPending applies a committed-but-interrupted flush transaction, as
// restart processing would replay it from the flush-transaction log.  It is
// idempotent and returns the number of entries applied.
func (s *Store) RecoverPending() int {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.pending == nil {
		return 0
	}
	n := len(s.pending)
	for _, e := range s.pending {
		s.applyEntry(e)
	}
	s.pending = nil
	return n
}

// Stats returns a snapshot of the I/O statistics.
func (s *Store) Stats() IOStats {
	st := IOStats{
		ObjectReads:       s.objectReads.Load(),
		ObjectWrites:      s.objectWrites.Load(),
		ObjectWriteBytes:  s.objectWriteBytes.Load(),
		PointerSwings:     s.pointerSwings.Load(),
		FlushTxnLogWrites: s.flushTxnLogWrites.Load(),
		FlushTxnLogBytes:  s.flushTxnLogBytes.Load(),
	}
	for m := range s.batches {
		st.Batches[m] = s.batches[m].Load()
	}
	return st
}

// ResetStats zeroes the I/O statistics.
func (s *Store) ResetStats() {
	s.objectReads.Store(0)
	s.objectWrites.Store(0)
	s.objectWriteBytes.Store(0)
	s.pointerSwings.Store(0)
	s.flushTxnLogWrites.Store(0)
	s.flushTxnLogBytes.Store(0)
	for m := range s.batches {
		s.batches[m].Store(0)
	}
}

// Snapshot returns a deep copy of the stored state (test oracle use).
func (s *Store) Snapshot() map[op.ObjectID]Versioned {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[op.ObjectID]Versioned, len(s.objects))
	for x, v := range s.objects {
		out[x] = Versioned{Val: append([]byte(nil), v.Val...), VSI: v.VSI}
	}
	return out
}

// Restore replaces the stored state with a snapshot (media-recovery /
// backup support and test use).
func (s *Store) Restore(snap map[op.ObjectID]Versioned) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	objects := make(map[op.ObjectID]Versioned, len(snap))
	for x, v := range snap {
		objects[x] = Versioned{Val: append([]byte(nil), v.Val...), VSI: v.VSI}
	}
	s.mu.Lock()
	s.objects = objects
	s.mu.Unlock()
	s.pending = nil
}

func cloneEntries(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{ID: e.ID, VSI: e.VSI, Delete: e.Delete, Val: append([]byte(nil), e.Val...)}
	}
	return out
}
