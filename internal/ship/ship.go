// Package ship implements log shipping and a warm standby: replication as
// continuous recovery.
//
// The paper's REDO machinery generalizes beyond crash recovery the moment
// the REDO test is driven by installation and exposure rather than logged
// values: a warm standby is recovery that never stops.  A Sender streams the
// primary's durable log records — operations, installs, flushes, and
// checkpoints — in acked batches over a Transport; a Standby applies them
// incrementally with exactly the machinery crash recovery uses (the dirty
// object table via recovery.UpdateDirtyTable, the REDO test and trial
// execution via the shared redo step, recovery.Step) and mirrors
// the primary's installation schedule from its install/flush records
// (cache.MirrorInstall/MirrorFlush, which run the primary's own installation
// step), so the standby's stable state is kept hot and its own log is a
// byte-equivalent prefix copy of the primary's.
// Failover promotion is therefore ordinary crash recovery over the
// standby's log and store (core.Adopt).
//
// The protocol is a cursor/ack loop resilient to a lossy transport: the
// sender ships only records at or below the primary's durable horizon
// (records that can never be retracted by a torn-tail trim), advances its
// cursor optimistically, and rewinds it whenever an ack's Want shows the
// standby stopped short — so dropped, duplicated, reordered, and transiently
// failing batches (injected through internal/fault's ship channel) all
// converge by resend, and a disconnected standby catches up the same way.
package ship

import (
	"fmt"
	"sync"

	"logicallog/internal/fault"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// Batch is one shipped unit: a run of consecutive log records, framed
// exactly as the WAL frames them.  Count == 0 is a probe: it carries no
// records and only elicits an ack (used by Sync to learn the standby's
// horizons after lost batches).
type Batch struct {
	// Seq numbers batches in send order (diagnostics; the protocol keys on
	// LSNs, not sequence numbers).
	Seq uint64
	// FirstLSN/LastLSN bound the records carried; Count is how many.
	FirstLSN op.SI
	LastLSN  op.SI
	Count    int
	// Frames is the records' frames as they lie on the primary's device,
	// concatenated.
	Frames []byte
}

// Ack is the standby's receipt for one delivered batch.
type Ack struct {
	// Applied is the highest LSN the standby has applied.
	Applied op.SI
	// Durable is the standby's own durable log horizon (its forced prefix,
	// or the record before its origin while a bootstrapped standby has
	// forced nothing).
	// The sender's retention hook pins the primary's truncation floor at
	// Durable+1, so a lagging standby can always re-fetch what it lost.
	Durable op.SI
	// Want is the next LSN the standby needs.  Want below the sender's
	// cursor means delivery stopped short (a gap from a lost batch, or a
	// standby restart): the sender rewinds and resends.
	Want op.SI
	// Lost marks an ack synthesized by the transport for a batch that never
	// reached the standby (drop, reorder hold, severed link).  Its other
	// fields are meaningless and must not update sender state.
	Lost bool
}

// Transport delivers batches to a standby and returns its ack.  Errors are
// transport failures; a retryable one (wal.IsTransient) is retried by the
// sender, anything else aborts the pump.
type Transport interface {
	Send(b *Batch) (Ack, error)
}

// SenderConfig parameterizes a Sender.
type SenderConfig struct {
	// BatchRecords bounds records per batch (default 16).
	BatchRecords int
	// Obs, when non-nil, receives the shipping metrics: replication lag in
	// LSNs and unshipped records (gauges), batch counts and sizes, resyncs.
	Obs *obs.Registry
	// Flight, when non-nil, records batch outcomes (sent/lost/rewind) in
	// the decision flight recorder for post-hoc forensics.
	Flight *flight.Recorder
}

// Sender streams a primary log to a standby.  It is safe for concurrent use,
// though pumping is typically driven from one goroutine.
type Sender struct {
	log *wal.Log
	tr  Transport
	cfg SenderConfig

	mu      sync.Mutex
	seq     uint64
	cursor  op.SI  // next LSN to ship
	acked   op.SI  // the standby's applied horizon, as its last ack said
	durable op.SI  // the standby's durable horizon, as its last ack said
	acks    uint64 // real (not Lost) acks received
	resyncs int64

	unregister func()

	lagLSN      *obs.Gauge
	lagRecords  *obs.Gauge
	batchesSent *obs.Counter
	batchesLost *obs.Counter
	recordsSent *obs.Counter
	resyncCount *obs.Counter
	batchRecs   *obs.Histogram
	batchBytes  *obs.Histogram
}

// NewSender builds a sender that ships log records from startLSN on — the
// standby's replay origin: 1 for an empty standby, backup.StartLSN for a
// bootstrapped one.  The sender registers a retention hook on the log so
// checkpoint truncation can never strand the standby; Close releases it.
func NewSender(log *wal.Log, tr Transport, startLSN op.SI, cfg SenderConfig) *Sender {
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 16
	}
	if startLSN < 1 {
		startLSN = 1
	}
	s := &Sender{
		log:    log,
		tr:     tr,
		cfg:    cfg,
		cursor: startLSN,
		acked:  startLSN - 1,
	}
	s.durable = startLSN - 1
	s.lagLSN = cfg.Obs.Gauge("ship.lag_lsn")
	s.lagRecords = cfg.Obs.Gauge("ship.lag_records")
	s.batchesSent = cfg.Obs.Counter("ship.batches_sent")
	s.batchesLost = cfg.Obs.Counter("ship.batches_lost")
	s.recordsSent = cfg.Obs.Counter("ship.records_shipped")
	s.resyncCount = cfg.Obs.Counter("ship.resyncs")
	s.batchRecs = cfg.Obs.Histogram("ship.batch.records")
	s.batchBytes = cfg.Obs.Histogram("ship.batch.bytes")
	s.unregister = log.RegisterRetention(s.retainHorizon)
	return s
}

// retainHorizon is the sender's registered truncation floor: everything the
// standby has not yet made durable must stay on the primary's log.
func (s *Sender) retainHorizon() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable + 1
}

// Close releases the sender's retention hook on the primary log.
func (s *Sender) Close() {
	if s.unregister != nil {
		s.unregister()
		s.unregister = nil
	}
}

// Resyncs returns how many times an ack rewound the cursor.
func (s *Sender) Resyncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resyncs
}

// Lag returns the replication lag as LSN distance (durable horizon minus
// standby-applied horizon) and as unshipped record count.
func (s *Sender) Lag() (lsns, records int64) { return s.lag(s.log.StableLSN()) }

// lag is Lag against the primary's durable horizon stable.
func (s *Sender) lag(stable op.SI) (lsns, records int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(int64(stable)-int64(s.acked), 0), max(int64(stable)-int64(s.cursor)+1, 0)
}

// Pump ships one batch of durable records at the cursor.  It returns whether
// anything was shipped; (false, nil) means the standby has been sent
// everything durable (though not necessarily acked — see Sync).  Lost
// batches still advance the cursor; the standby's next gap ack rewinds it.
func (s *Sender) Pump() (bool, error) {
	stable := s.log.StableLSN()
	s.mu.Lock()
	cursor := s.cursor
	s.mu.Unlock()
	if cursor > stable {
		s.observeLag(stable)
		return false, nil
	}
	if first := s.log.FirstLSN(); first > cursor {
		return false, fmt.Errorf("ship: standby stranded: needs LSN %d but log starts at %d", cursor, first)
	}
	b, err := s.buildBatch(cursor, stable)
	if err != nil {
		return false, err
	}
	if err := s.send(b); err != nil {
		return false, err
	}
	s.observeLag(s.log.StableLSN())
	return true, nil
}

// buildBatch copies up to BatchRecords durable records starting at cursor,
// each as the frame that lies on the device; no record is decoded.
func (s *Sender) buildBatch(cursor, stable op.SI) (*Batch, error) {
	sc, err := s.log.Scan(cursor)
	if err != nil {
		return nil, err
	}
	b := &Batch{FirstLSN: cursor}
	for b.Count < s.cfg.BatchRecords {
		lsn, fr, ok := sc.NextFrame()
		if !ok || lsn > stable {
			break // end of the durable log
		}
		want := cursor + op.SI(b.Count)
		if lsn != want {
			return nil, fmt.Errorf("ship: log gap at LSN %d (scan yielded %d)", want, lsn)
		}
		b.Frames = append(b.Frames, fr...)
		b.LastLSN = lsn
		b.Count++
	}
	if b.Count == 0 {
		return nil, fmt.Errorf("ship: no durable record at LSN %d (stable %d)", cursor, stable)
	}
	return b, nil
}

// send delivers one batch (or probe) with transient retry.  A real ack
// replaces the sender's horizons: they are the standby's current ones, which
// a standby restart can move back.
func (s *Sender) send(b *Batch) error {
	s.mu.Lock()
	s.seq++
	b.Seq = s.seq
	s.mu.Unlock()
	var ack Ack
	err := wal.RetryTransient(func() (err error) {
		ack, err = s.tr.Send(b)
		return err
	}, nil)
	if err != nil {
		if wal.IsTransient(err) {
			// Out of retries: treat like a dropped batch; a later pump or
			// sync converges by resend.
			ack = Ack{Lost: true}
		} else {
			return err
		}
	}
	s.batchesSent.Inc()
	if b.Count > 0 {
		s.recordsSent.Add(int64(b.Count))
		s.batchRecs.Observe(int64(b.Count))
		s.batchBytes.Observe(int64(len(b.Frames)))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Count > 0 && b.LastLSN+1 > s.cursor {
		// Optimistic advance, even for lost batches: a resulting gap shows
		// up in the next real ack's Want and rewinds us.
		s.cursor = b.LastLSN + 1
	}
	if ack.Lost {
		s.batchesLost.Inc()
		s.cfg.Flight.ShipBatch(flight.DecLost, b.FirstLSN, b.LastLSN, int64(b.Count))
		return nil
	}
	s.acked, s.durable = ack.Applied, ack.Durable
	s.acks++
	if b.Count > 0 {
		s.cfg.Flight.ShipBatch(flight.DecSent, b.FirstLSN, b.LastLSN, int64(b.Count))
	}
	if ack.Want != 0 && ack.Want < s.cursor {
		s.cursor = ack.Want
		s.resyncs++
		s.resyncCount.Inc()
		// A rewind's Ref is the standby's Want cursor the sender backed
		// up to.
		s.cfg.Flight.ShipBatch(flight.DecRewind, b.FirstLSN, ack.Want, int64(b.Count))
	}
	return nil
}

// observeLag refreshes the replication-lag gauges.
func (s *Sender) observeLag(stable op.SI) {
	if s.lagLSN == nil {
		return
	}
	lsns, records := s.lag(stable)
	s.lagLSN.Set(lsns)
	s.lagRecords.Set(records)
}

// PumpAll pumps until every durable record has been shipped once.  It does
// not wait for acks; lost tails are recovered by Sync.
func (s *Sender) PumpAll() error {
	for {
		shipped, err := s.Pump()
		if err != nil {
			return err
		}
		if !shipped {
			return nil
		}
	}
}

// Sync drives the ship loop until the standby has applied every record up to
// the primary's durable horizon, resending what was lost along the way.  It
// trusts the horizons only once an ack has arrived during the call: a
// standby that restarted since its last ack may have lost applied records.
// It sends probe batches when everything has been shipped but no fresh ack
// shows it applied (the "lost final batch" case).  A transport that stops
// making progress — a severed link — fails after a bounded number of
// attempts.
func (s *Sender) Sync() error {
	const maxStalls = 8
	stalls := 0
	s.mu.Lock()
	acks := s.acks
	s.mu.Unlock()
	for {
		stable := s.log.StableLSN()
		s.mu.Lock()
		acked, cursor, fresh := s.acked, s.cursor, s.acks > acks
		s.mu.Unlock()
		if fresh && acked >= stable && cursor > stable {
			s.observeLag(stable)
			return nil
		}
		if cursor <= stable {
			if _, err := s.Pump(); err != nil {
				return err
			}
		} else {
			// Everything shipped, not everything freshly acked: probe
			// for the standby's horizons (its Want rewinds the cursor if
			// a batch was lost in flight or a restart lost its tail).
			if err := s.send(&Batch{FirstLSN: cursor, LastLSN: cursor - 1}); err != nil {
				return err
			}
		}
		s.mu.Lock()
		progressed := s.acked > acked || s.cursor != cursor
		s.mu.Unlock()
		if progressed {
			stalls = 0
			continue
		}
		stalls++
		if stalls >= maxStalls {
			return fmt.Errorf("ship: sync stalled at acked %d / stable %d (link down?)", acked, stable)
		}
	}
}

// ---------------------------------------------------------------------------
// In-memory transport.
// ---------------------------------------------------------------------------

// Link is the in-memory Transport: it delivers batches directly to a Standby,
// consulting a fault plan's ship channel on every send.  Drop loses the
// batch; dup delivers it twice; reorder holds it and delivers it after the
// next clean send (a late arrival); eio fails the send retryably; crash
// severs the link — every further send is lost until Reconnect.  All ship
// faults leave both machines running.
type Link struct {
	mu      sync.Mutex
	standby *Standby
	plan    *fault.Plan
	delayed []*Batch
	down    bool
}

// NewLink connects a standby.  plan may be nil (a perfect network).
func NewLink(standby *Standby, plan *fault.Plan) *Link {
	return &Link{standby: standby, plan: plan}
}

// Reconnect restores a link severed by a ship crash fault.
func (l *Link) Reconnect() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = false
}

// Down reports whether the link is severed.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Send implements Transport.
func (l *Link) Send(b *Batch) (Ack, error) {
	pt := fault.Point{}
	if l.plan != nil {
		var dead bool
		pt, dead = l.plan.ShipPoint()
		if dead {
			return Ack{Lost: true}, fmt.Errorf("ship: send from stopped machine: %w", fault.ErrInjected)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return Ack{Lost: true}, nil
	}
	switch pt.Kind {
	case fault.KindNone:
		return l.deliverLocked(b, 1)
	case fault.KindDup:
		return l.deliverLocked(b, 2)
	case fault.KindReorder:
		// Hold the batch; it arrives late, after the next clean delivery.
		l.delayed = append(l.delayed, b)
		return Ack{Lost: true}, nil
	case fault.KindTransient:
		return Ack{Lost: true}, &fault.TransientError{Chan: fault.ChanShip, Index: pt.Index}
	case fault.KindCrash:
		l.down = true
		return Ack{Lost: true}, nil
	default:
		// Drop, and any kind with no ship meaning (torn, flip): the batch
		// vanishes on the wire.
		return Ack{Lost: true}, nil
	}
}

// deliverLocked hands the batch to the standby n times, then flushes any
// held (reordered) batches as late arrivals.  The last delivery's ack wins:
// it reflects the standby's newest horizons.
func (l *Link) deliverLocked(b *Batch, n int) (Ack, error) {
	var ack Ack
	var err error
	for i := 0; i < n; i++ {
		ack, err = l.standby.Deliver(b)
		if err != nil {
			return ack, err
		}
	}
	for len(l.delayed) > 0 {
		late := l.delayed[0]
		l.delayed = l.delayed[1:]
		ack, err = l.standby.Deliver(late)
		if err != nil {
			return ack, err
		}
	}
	return ack, nil
}
