package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/frame"
	"logicallog/internal/obs"
	"logicallog/internal/op"
)

// Log is the write-ahead log.  Appended records land, framed and in LSN
// order, in one volatile tail buffer; Force (or ForceThrough) writes a
// prefix of the tail to the Device and drops it once the device has
// acknowledged it.  A crash loses everything volatile.  LSNs are assigned
// densely starting at 1 and double as state identifiers (SIs) throughout
// the system.
//
// Log is safe for concurrent use.  Appenders take only the lane mutex, not
// the log mutex: an append claims its LSN and encodes its frame inside that
// one critical section, so the tail holds every claimed LSN in order and
// any prefix of it is gap-free.  Concurrent forcers group-commit: while one
// caller (the leader) is writing a tail prefix to the device, later callers
// whose records are covered by that in-flight write wait on it instead of
// issuing their own device write (leader/follower coalescing).  The device
// write itself happens outside both mutexes, so appenders keep running
// while a force is in flight.
//
// Lock order: l.mu before laneMu.
type Log struct {
	mu        sync.Mutex
	forceDone *sync.Cond // broadcast when an in-flight force completes
	forcing   bool       // a leader is writing to the device
	// pendingForce accumulates the highest LSN requested by forcers that
	// arrived while a leader's write was in flight; the next leader
	// covers all of them in one device write.
	pendingForce op.SI
	dev          Device

	// nextLSN is the next LSN to assign.  It only moves under laneMu;
	// NextLSN reads it without locks.
	nextLSN atomic.Uint64

	stableLSN op.SI
	firstLSN  op.SI // first LSN still on the device (post truncation)

	// The volatile tail: the frames of every appended record the device
	// has not acknowledged, in LSN order; ends[i] is the end offset of the
	// i-th frame, so the tail's first LSN is nextLSN - len(ends).  Appends
	// only extend tail, so a prefix the leader is writing never moves
	// under it.  Guarded by laneMu.
	laneMu sync.Mutex
	tail   []byte
	ends   []int

	// cut is the record count of a failed device write: the next leader
	// re-sends at least that prefix.  gen counts crashes, telling an
	// in-flight leader that Crash dropped the tail it wrote from.  Guarded
	// by l.mu.
	cut int
	gen uint64

	// stats: the append-side fields (Records, PayloadBytes, OpPayloadBytes,
	// ValueBytes, BytesAppended) are guarded by laneMu, the force-side
	// counters by l.mu; snapshots hold both.
	stats Stats
	// obs is written under both l.mu and laneMu, so either suffices to
	// read it.
	obs logObs

	// Retention hooks, under their own mutex so hook queries never nest
	// inside l.mu (see RegisterRetention).
	retainMu  sync.Mutex
	retainSeq int
	retain    map[int]func() op.SI
}

// logObs holds the log's optional hot-path metrics (see SetObs).  All
// handles are nil when observability is off; every update below is nil-safe
// and clock reads are guarded, so the disabled overhead is a pointer test.
type logObs struct {
	// appendNs is the Append latency (encode + stream buffering), in ns.
	appendNs *obs.Histogram
	// forceDeviceNs is the per-force device write latency, in ns.
	forceDeviceNs *obs.Histogram
	// forceBatchRecords is the group-commit batch size distribution: log
	// records made durable per device write.
	forceBatchRecords *obs.Histogram
	// forceBatchBytes is the framed bytes per device write.
	forceBatchBytes *obs.Histogram
	// retryBackoffNs is the transient-retry backoff slept per attempt.
	retryBackoffNs *obs.Histogram
}

// SetObs wires the log's hot-path metrics into r; nil disables them.
func (l *Log) SetObs(r *obs.Registry) {
	var o logObs
	if r != nil {
		o = logObs{
			appendNs:          r.Histogram("wal.append.ns"),
			forceDeviceNs:     r.Histogram("wal.force.device_ns"),
			forceBatchRecords: r.Histogram("wal.force.batch_records"),
			forceBatchBytes:   r.Histogram("wal.force.batch_bytes"),
			retryBackoffNs:    r.Histogram("wal.retry.backoff_ns"),
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	l.obs = o
}

// Stats aggregates the logging-cost accounting the experiments report.
type Stats struct {
	// Records counts appended records by type.
	Records [numRecordTypes]int64
	// PayloadBytes counts payload bytes by record type (framing excluded).
	PayloadBytes [numRecordTypes]int64
	// OpPayloadBytes counts operation payload bytes by operation kind —
	// this is the logical-vs-physical logging cost (Figure 1 / E1).
	OpPayloadBytes [op.NumKinds]int64
	// ValueBytes counts bytes of logged data values (the part logical
	// operations avoid).
	ValueBytes int64
	// BytesAppended is the total framed bytes appended.
	BytesAppended int64
	// Forces counts Force calls that actually wrote to the device.
	Forces int64
	// ForcesCoalesced counts Force/ForceThrough calls satisfied by another
	// caller's in-flight device write (group commit followers).
	ForcesCoalesced int64
	// TransientRetries counts device appends retried after a transient
	// (retryable) error.
	TransientRetries int64
	// TruncationsClamped counts Truncate calls whose cut point was raised
	// less far than requested because a registered retention horizon
	// (backup image, lagging standby) still needed earlier records.
	TruncationsClamped int64
}

// AddTo sets the log's counters in c under their metric names.  A per-type
// or per-kind slot is named only once it has counted something.
func (s Stats) AddTo(c map[string]int64) {
	c["wal.bytes_appended"] = s.BytesAppended
	c["wal.value_bytes"] = s.ValueBytes
	c["wal.forces"] = s.Forces
	c["wal.forces_coalesced"] = s.ForcesCoalesced
	c["wal.transient_retries"] = s.TransientRetries
	c["wal.truncations_clamped"] = s.TruncationsClamped
	for t, n := range s.Records {
		if n != 0 {
			c["wal.records."+RecordType(t).String()] = n
		}
	}
	for t, n := range s.PayloadBytes {
		if n != 0 {
			c["wal.payload_bytes."+RecordType(t).String()] = n
		}
	}
	for k, n := range s.OpPayloadBytes {
		if n != 0 {
			c["wal.op_payload_bytes."+op.Kind(k).String()] = n
		}
	}
}

// transient matches errors that mark themselves retryable, such as the
// fault layer's injected EIOs.  Declared locally so wal does not import the
// fault package (which imports wal).
type transient interface {
	Transient() bool
}

// IsTransient reports whether err is a retryable I/O error.
func IsTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// Backoff is a capped exponential backoff sequence: base, 2·base, 4·base,
// ..., clamped to max.  The state is advanced incrementally, so a retry loop
// does O(1) work per attempt.
type Backoff struct {
	next time.Duration
	max  time.Duration
}

// NewBackoff returns a backoff sequence starting at base and doubling per
// Next call, clamped to max (max <= 0 means uncapped).
func NewBackoff(base, max time.Duration) Backoff {
	return Backoff{next: base, max: max}
}

// Next returns the next delay in the sequence and advances it.
func (b *Backoff) Next() time.Duration {
	d := b.next
	if d <= 0 {
		return 0
	}
	if b.max > 0 && d >= b.max {
		b.next = b.max
		return b.max
	}
	b.next = d * 2
	return d
}

// The transient-retry policy of every retrying layer — log force, stable
// install, ship send.  Constants, not options: no workload or command ever
// ran with other values.  The simulated devices have no real latency, so the
// backoff only paces the loop.
const (
	transientRetries   = 3
	transientRetryBase = 20 * time.Microsecond
	transientRetryCap  = 500 * time.Microsecond
)

// RetryTransient runs attempt and, while it fails with a retryable error
// (IsTransient), runs it again up to transientRetries more times, sleeping a
// capped exponential backoff before each retry.  onRetry, when non-nil,
// observes each backoff before it is slept.  The last attempt's error is
// returned.  This is the module's only retry loop; attempt must be safe to
// re-run after a failure.
func RetryTransient(attempt func() error, onRetry func(backoff time.Duration)) error {
	err := attempt()
	bo := NewBackoff(transientRetryBase, transientRetryCap)
	for n := 0; err != nil && n < transientRetries && IsTransient(err); n++ {
		d := bo.Next()
		if onRetry != nil {
			onRetry(d)
		}
		time.Sleep(d)
		err = attempt()
	}
	return err
}

// TotalOpPayloadBytes sums operation payload bytes across kinds.
func (s Stats) TotalOpPayloadBytes() int64 {
	var t int64
	for _, v := range s.OpPayloadBytes {
		t += v
	}
	return t
}

// New creates a Log over dev.  If dev already holds records (restart after
// crash), the log resumes LSN assignment after the highest durable record.
// New only reads the device, and decodes no record body (see Scanner.step).
func New(dev Device) (*Log, error) {
	l := &Log{dev: dev, firstLSN: 1}
	l.nextLSN.Store(1)
	l.forceDone = sync.NewCond(&l.mu)
	sc, err := l.Scan(0)
	if err != nil {
		return nil, err
	}
	for sc.step() {
		if l.stableLSN == 0 {
			l.firstLSN = sc.last
		}
		l.stableLSN = sc.last
	}
	l.nextLSN.Store(uint64(l.stableLSN) + 1)
	return l, nil
}

// Append assigns the next LSN to rec, encodes it into the tail, and
// returns the LSN.  For operation records the operation's LSN field is set,
// binding the operation's lSI.  Append does NOT force; the WAL protocol's
// forcing happens before installation (see ForceThrough).
func (l *Log) Append(rec *Record) (op.SI, error) {
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	var appendStart time.Time
	if l.obs.appendNs.Enabled() {
		appendStart = time.Now()
	}
	// Claim and buffer in one lane critical section: every LSN below
	// nextLSN is in the tail (or already on the device), in order.
	lsn := op.SI(l.nextLSN.Add(1) - 1)
	rec.LSN = lsn
	if rec.Op != nil {
		rec.Op.LSN = lsn
	}
	l.bufferLocked(rec)
	if l.obs.appendNs.Enabled() {
		l.obs.appendNs.Since(appendStart)
	}
	return lsn, nil
}

// AppendOp is shorthand for Append(NewOpRecord(o)).
func (l *Log) AppendOp(o *op.Operation) (op.SI, error) { return l.Append(NewOpRecord(o)) }

// AppendShipped appends a record that already owns its LSN — a record
// received from a primary's log stream.  The standby's log must be a
// gap-free prefix copy of the primary's, so the record has to land exactly
// at the next LSN; the one exception is a completely fresh log (bootstrap
// from a backup image), which adopts the stream's first LSN as its origin.
// Shipped records share the tail with local ones.  Like Append,
// AppendShipped does not force.
func (l *Log) AppendShipped(rec *Record) error {
	if rec.LSN == 0 {
		return fmt.Errorf("wal: shipped record has no LSN")
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	next := op.SI(l.nextLSN.Load())
	if l.stableLSN == 0 && next == 1 {
		// Fresh log: adopt the stream origin (backup StartLSN).  Nothing
		// was ever appended, so no volatile record can exist either.
		next = rec.LSN
		l.firstLSN = rec.LSN
		l.nextLSN.Store(uint64(next))
	}
	if rec.LSN != next {
		return fmt.Errorf("wal: shipped record LSN %d, want %d", rec.LSN, next)
	}
	l.nextLSN.Store(uint64(next) + 1)
	l.bufferLocked(rec)
	return nil
}

// bufferLocked encodes rec (validated, LSN assigned) onto the tail and
// updates the append statistics.  Caller holds laneMu.
func (l *Log) bufferLocked(rec *Record) {
	start := len(l.tail)
	l.tail = AppendFrame(l.tail, rec)
	l.ends = append(l.ends, len(l.tail))
	size := int64(len(l.tail) - start)
	payloadLen := size - frame.Overhead
	l.stats.Records[rec.Type]++
	l.stats.PayloadBytes[rec.Type] += payloadLen
	l.stats.BytesAppended += size
	if rec.Type == RecOperation {
		l.stats.OpPayloadBytes[rec.Op.Kind] += payloadLen
		for _, v := range rec.Op.Values {
			l.stats.ValueBytes += int64(len(v))
		}
	}
}

// Force makes every appended record durable.
func (l *Log) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(op.SI(l.nextLSN.Load()) - 1)
}

// ForceThrough makes records up to and including lsn durable (WAL protocol:
// called before installing an operation's effects).
func (l *Log) ForceThrough(lsn op.SI) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forceLocked(lsn)
}

// forceLocked implements group commit.  The caller holds l.mu; the device
// write happens with the mutex released.
//
// A caller whose lsn is already durable returns immediately.  Otherwise, if
// a leader's device write is in flight, the caller records its target in
// pendingForce and waits as a follower: when the leader finishes, a
// follower whose lsn the write covered returns without touching the device
// (counted in ForcesCoalesced).  A caller that finds no force in flight
// becomes the leader: it writes the tail prefix covering its own target and
// every target accumulated in pendingForce (see cutThrough) in one device
// append, straight from the tail — coalescing concurrent committers without
// forcing records nobody asked for (the unforced suffix stays crash-losable,
// which the simulator's crash model depends on).  The written prefix is
// dropped from the tail once the device acknowledges it; after a failed
// write it stays, and the next leader re-sends it.
func (l *Log) forceLocked(lsn op.SI) error {
	joined := false
	for {
		if lsn <= l.stableLSN {
			if joined {
				l.stats.ForcesCoalesced++
			}
			return nil
		}
		if !l.forcing {
			break
		}
		joined = true
		if lsn > l.pendingForce {
			l.pendingForce = lsn
		}
		l.forceDone.Wait()
	}
	// Leader: claim every pending target in one write.
	target := lsn
	if l.pendingForce > target {
		target = l.pendingForce
	}
	l.pendingForce = 0
	buf, n, last := l.cutThrough(target)
	if n == 0 {
		return nil
	}
	gen := l.gen
	l.forcing = true
	hooks := l.obs
	l.mu.Unlock()
	var deviceStart time.Time
	if hooks.forceDeviceNs.Enabled() {
		deviceStart = time.Now()
	}
	var retries int64
	err := RetryTransient(func() error { return l.dev.Append(buf) }, func(d time.Duration) {
		hooks.retryBackoffNs.ObserveDuration(d)
		retries++
	})
	if hooks.forceDeviceNs.Enabled() {
		hooks.forceDeviceNs.Since(deviceStart)
		hooks.forceBatchRecords.Observe(int64(n))
		hooks.forceBatchBytes.Observe(int64(len(buf)))
	}
	l.mu.Lock()
	l.forcing = false
	l.stats.TransientRetries += retries
	// Crash may have dropped the tail meanwhile (gen moved); a successful
	// device write still happened, so stableLSN stands either way.
	if err == nil {
		if last > l.stableLSN {
			l.stableLSN = last
		}
		if l.gen == gen {
			l.dropPrefix(n)
		}
		l.stats.Forces++
	} else if l.gen == gen {
		l.cut = n
	}
	l.forceDone.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: force: %w", err)
	}
	return nil
}

// cutThrough returns the tail prefix holding every record with LSN <=
// target, but never fewer records than a failed earlier write covered (cut),
// with its record count and last LSN.  The slice is capped at its length, so
// a device that appends to it reallocates instead of overwriting the records
// behind it.  Caller holds l.mu.
func (l *Log) cutThrough(target op.SI) (buf []byte, n int, last op.SI) {
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	first := op.SI(l.nextLSN.Load()) - op.SI(len(l.ends))
	n = len(l.ends)
	if target < first {
		n = 0
	} else if target-first < op.SI(n) {
		n = int(target-first) + 1
	}
	n = max(n, l.cut)
	if n == 0 {
		return nil, 0, 0
	}
	end := l.ends[n-1]
	return l.tail[:end:end], n, first + op.SI(n) - 1
}

// dropPrefix discards the first n records of the tail, which the device has
// acknowledged, copying the rest down.  Caller holds l.mu.
func (l *Log) dropPrefix(n int) {
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	off := l.ends[n-1]
	l.tail = l.tail[:copy(l.tail, l.tail[off:])]
	l.ends = l.ends[:copy(l.ends, l.ends[n:])]
	for i := range l.ends {
		l.ends[i] -= off
	}
	l.cut = 0
}

// StableLSN returns the highest durable LSN.
func (l *Log) StableLSN() op.SI {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stableLSN
}

// NextLSN returns the LSN the next Append will assign.
func (l *Log) NextLSN() op.SI {
	return op.SI(l.nextLSN.Load())
}

// FirstLSN returns the earliest LSN still on the device.
func (l *Log) FirstLSN() op.SI {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// Crash drops every volatile record (the whole tail, including a prefix a
// leader may still be writing), simulating a crash; it returns the number of
// records lost.  The device (stable log) is untouched.
func (l *Log) Crash() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	n := len(l.ends)
	// A fresh buffer, not tail[:0]: an in-flight leader may still be
	// writing from the old one.
	l.tail = nil
	l.ends = nil
	l.cut = 0
	l.gen++
	// LSN assignment continues monotonically after recovery; recovery
	// itself may log fresh records.
	return n
}

// Restart re-synchronizes the log with its device at recovery time, as a
// process restart's New would, and returns the records of the surviving
// durable prefix in LSN order, decoded once by its own walk, from which every
// replay of the durable log takes its records.  The records alias the walk's
// immutable device snapshot: read-only.  A kept record whose body does not
// decode is an error, and the device is then left as it was.
//
// Restart waits out any in-flight force, then rewrites the device down to
// its trustworthy prefix.  That prefix is the durable log as Scanner.step
// defines it, with one more rule: if its first record lies beyond the acked
// horizon (stableLSN), it must start exactly where the log would have
// appended.  Everything from the first violation on is the debris of a
// torn, bit-flipped, or reordered final append.  When the volatile buffers
// are empty, i.e. the caller crashed first, Restart also rewinds the LSN
// horizon to the durable log so the LSNs of lost records are reused and the
// durable log stays gap-free.  With volatile records still buffered
// (recovery without a crash) the horizon is left alone: the buffers still
// own their LSNs.  An empty device also leaves the horizon alone, because
// checkpoint truncation legitimately erases records whose LSNs must not be
// reassigned.
func (l *Log) Restart() ([]*Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.forcing {
		l.forceDone.Wait()
	}
	sc, err := l.Scan(0)
	if err != nil {
		return nil, fmt.Errorf("wal: restart: %w", err)
	}
	var recs []*Record
	var last op.SI
	good := 0
	for sc.step() {
		if recs == nil && sc.last > l.stableLSN {
			// The device's very first record was never acked, so nothing
			// vouches for it unless it sits exactly where the next append
			// would have landed: after the acked horizon, or at the log's
			// first LSN when nothing was ever acked.  A later LSN means
			// the append's leading frames were lost.
			want := l.stableLSN + 1
			if l.stableLSN == 0 {
				want = l.firstLSN
			}
			if sc.last != want {
				break
			}
		}
		rec, err := sc.decode()
		if err != nil {
			return nil, fmt.Errorf("wal: restart: %w", err)
		}
		recs = append(recs, rec)
		last, good = rec.LSN, sc.off
	}
	if good < len(sc.data) {
		if err := l.dev.Rewrite(sc.data[:good]); err != nil {
			return nil, fmt.Errorf("wal: restart: %w", err)
		}
		if last < l.stableLSN {
			// Only possible outside the crash model (acked data lost); keep
			// the horizon consistent with the device regardless.
			l.stableLSN = last
		}
	}
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	if len(l.ends) != 0 || recs == nil {
		return recs, nil // buffered records or an empty device: keep the horizon
	}
	l.firstLSN = recs[0].LSN
	if last > l.stableLSN {
		// A torn append can land every frame and lose only the ack; the
		// records are durable, so the horizon advances over them.
		l.stableLSN = last
	}
	l.nextLSN.Store(uint64(l.stableLSN) + 1)
	return recs, nil
}

// RegisterRetention registers a truncation horizon: Truncate will never
// discard records with LSN >= the hook's returned value, no matter what cut
// point the caller asks for.  A hook returning NilSI (0) abstains for that
// truncation.  Hooks are consulted outside the log mutex and must not call
// back into the Log.  The returned release function unregisters the hook.
func (l *Log) RegisterRetention(fn func() op.SI) (release func()) {
	l.retainMu.Lock()
	defer l.retainMu.Unlock()
	if l.retain == nil {
		l.retain = make(map[int]func() op.SI)
	}
	id := l.retainSeq
	l.retainSeq++
	l.retain[id] = fn
	return func() {
		l.retainMu.Lock()
		defer l.retainMu.Unlock()
		delete(l.retain, id)
	}
}

// retentionFloor queries every registered hook and returns the lowest
// non-zero horizon, or 0 when no hook constrains truncation.
func (l *Log) retentionFloor() op.SI {
	l.retainMu.Lock()
	hooks := make([]func() op.SI, 0, len(l.retain))
	for _, h := range l.retain {
		hooks = append(hooks, h)
	}
	l.retainMu.Unlock()
	floor := op.SI(0)
	for _, h := range hooks {
		if lsn := h(); lsn != 0 && (floor == 0 || lsn < floor) {
			floor = lsn
		}
	}
	return floor
}

// Truncate discards all durable records with LSN < before.  Only installed
// operations may be truncated away; the checkpointing caller guarantees
// that for the local engine, and registered retention hooks (backup images,
// lagging standbys) clamp the cut point further so no dependent replica is
// stranded.  Truncation rewrites the device.
func (l *Log) Truncate(before op.SI) error {
	clamped := false
	if floor := l.retentionFloor(); floor != 0 && floor < before {
		before = floor
		clamped = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if clamped {
		l.stats.TruncationsClamped++
	}
	// Truncation rewrites the device from a full read; an in-flight force
	// appending concurrently would be lost by the rewrite.  Wait it out.
	for l.forcing {
		l.forceDone.Wait()
	}
	// Keep the durable log from the first record at or after before: one
	// slice of the snapshot, already framed, found without decoding.
	sc, err := l.Scan(before)
	if err != nil {
		return err
	}
	var keep []byte
	newFirst := before
	if lsn, fr, ok := sc.NextFrame(); ok {
		newFirst = lsn
		cut := sc.off - len(fr)
		for sc.step() { // to the end of the durable log
		}
		keep = sc.data[cut:sc.off]
	}
	if err := l.dev.Rewrite(keep); err != nil {
		return err
	}
	l.firstLSN = newFirst
	return nil
}

// Scanner iterates durable records in LSN order.
//
// Returned records' byte fields (operation params and values) alias the
// scanner's snapshot of the device: ReadAll's result, which a MemDevice
// lends rather than copies, and which no one writes.  Callers must treat
// them as read-only.  Recovery analyzes and replays the records
// Restart's walk decoded, without copying them, so neither analysis nor the
// redo pass decodes the log again or copies a record's payload.
type Scanner struct {
	data  []byte // the device snapshot
	off   int    // offset of the next frame in data
	from  op.SI
	last  op.SI  // LSN of the last record stepped over
	frame []byte // the last stepped-over record's frame, aliasing data
}

// Scan returns a Scanner positioned at the first durable record with
// LSN >= from.  The scanner reads a snapshot; records appended afterwards
// are not visible.
func (l *Log) Scan(from op.SI) (*Scanner, error) {
	data, err := l.dev.ReadAll()
	if err != nil {
		return nil, err
	}
	return &Scanner{data: data, from: from}, nil
}

// step steps over the record at the scanner's offset if it extends the
// durable log, and reports false where the log ends.  This is the end-of-log
// rule, and every reader of the device — New, Restart, Truncate, NextFrame
// and Next — applies it through here: the frame is whole and its checksum matches, and
// the record header names a known type and an LSN that is the previous
// record's plus one (or, first on the device, any LSN from 1).  A torn or
// bit-flipped final append fails the first two; a reordered batch whose
// middle frame never landed fails the third.  step reads no record body.
func (s *Scanner) step() bool {
	payload, n, ok := frame.Next(s.data[s.off:])
	if !ok {
		return false
	}
	_, lsn, _, ok := recordHeader(payload)
	if !ok || lsn == 0 || (s.last != 0 && lsn != s.last+1) {
		return false
	}
	s.frame = s.data[s.off : s.off+n : s.off+n]
	s.off += n
	s.last = lsn
	return true
}

// errUndecodable marks a checksummed record whose body does not decode.  No
// crash leaves one behind, so it is corruption inside the log, not its end.
var errUndecodable = errors.New("wal: checksummed record does not decode")

// decode decodes the body of the record step last stepped over.
func (s *Scanner) decode() (*Record, error) {
	bodyDecodes.Add(1)
	rec, err := decodeRecord(s.frame[frame.Overhead:], true)
	if err != nil {
		return nil, fmt.Errorf("%w: LSN %d: %v", errUndecodable, s.last, err)
	}
	return rec, nil
}

// bodyDecodes counts the record bodies scanners decoded (tests pin it).
var bodyDecodes atomic.Int64

// NextFrame steps to the next record with LSN >= from without decoding it,
// and returns its LSN and its frame exactly as it lies on the device
// (aliasing the snapshot: read-only); ok is false at the end of the durable
// log (see step).
func (s *Scanner) NextFrame() (lsn op.SI, fr []byte, ok bool) {
	for s.step() {
		if s.last >= s.from {
			return s.last, s.frame, true
		}
	}
	return 0, nil, false
}

// Next returns the next record with LSN >= from, decoded, or io.EOF at the
// end of the durable log (see step).  Records before from are not decoded.
func (s *Scanner) Next() (*Record, error) {
	if _, _, ok := s.NextFrame(); !ok {
		return nil, io.EOF
	}
	return s.decode()
}

// All drains the scanner into a slice.
func (s *Scanner) All() ([]*Record, error) {
	var out []*Record
	for _, _, ok := s.NextFrame(); ok; _, _, ok = s.NextFrame() {
		rec, err := s.decode()
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Stats returns a snapshot of the logging statistics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	return l.stats
}

// ResetStats zeroes the statistics (benchmarks use this between phases).
func (l *Log) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.laneMu.Lock()
	defer l.laneMu.Unlock()
	l.stats = Stats{}
}
