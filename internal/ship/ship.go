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
	// Durable is the standby's own durable log horizon (its forced prefix).
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
	// Tracer, when non-nil, records a span per pumped batch.
	Tracer *obs.Tracer
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
	cursor  op.SI // next LSN to ship
	acked   op.SI // highest LSN the standby acked as applied
	durable op.SI // highest standby durable horizon seen
	resyncs int64

	unregister func()
	lane       *obs.Lane

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
	s.lane = cfg.Tracer.Lane("ship-sender")
	s.unregister = log.RegisterRetention("standby", s.retainHorizon)
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

// Cursor returns the next LSN the sender will ship.
func (s *Sender) Cursor() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Acked returns the highest LSN the standby has acked as applied.
func (s *Sender) Acked() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Resyncs returns how many times an ack rewound the cursor.
func (s *Sender) Resyncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resyncs
}

// Lag returns the replication lag as LSN distance (durable horizon minus
// standby-applied horizon) and as unshipped record count.
func (s *Sender) Lag() (lsns, records int64) {
	stable := s.log.StableLSN()
	s.mu.Lock()
	defer s.mu.Unlock()
	lsns = int64(stable) - int64(s.acked)
	records = int64(stable) - int64(s.cursor) + 1
	if lsns < 0 {
		lsns = 0
	}
	if records < 0 {
		records = 0
	}
	return lsns, records
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
// each as the frame that lies on the device.
func (s *Sender) buildBatch(cursor, stable op.SI) (*Batch, error) {
	sc, err := s.log.Scan(cursor)
	if err != nil {
		return nil, err
	}
	b := &Batch{FirstLSN: cursor}
	for b.Count < s.cfg.BatchRecords {
		rec, err := sc.Next()
		if err != nil || rec.LSN > stable {
			break // io.EOF: end of the durable log
		}
		want := cursor + op.SI(b.Count)
		if rec.LSN != want {
			return nil, fmt.Errorf("ship: log gap at LSN %d (scan yielded %d)", want, rec.LSN)
		}
		b.Frames = append(b.Frames, sc.Frame()...)
		b.LastLSN = rec.LSN
		b.Count++
	}
	if b.Count == 0 {
		return nil, fmt.Errorf("ship: no durable record at LSN %d (stable %d)", cursor, stable)
	}
	return b, nil
}

// send delivers one batch (or probe) with transient retry and folds the ack
// into the sender's horizons.
func (s *Sender) send(b *Batch) error {
	s.mu.Lock()
	s.seq++
	b.Seq = s.seq
	s.mu.Unlock()
	sp := s.lane.Begin("batch").
		Arg("seq", int64(b.Seq)).Arg("first", int64(b.FirstLSN)).
		Arg("count", b.Count)
	defer sp.End()

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
		sp.Arg("lost", true)
		s.cfg.Flight.ShipBatch(flight.DecLost, b.FirstLSN, b.LastLSN, int64(b.Count))
		return nil
	}
	if ack.Applied > s.acked {
		s.acked = ack.Applied
	}
	if ack.Durable > s.durable {
		s.durable = ack.Durable
	}
	if b.Count > 0 {
		s.cfg.Flight.ShipBatch(flight.DecSent, b.FirstLSN, b.LastLSN, int64(b.Count))
	}
	if ack.Want != 0 && ack.Want < s.cursor {
		s.cursor = ack.Want
		s.resyncs++
		s.resyncCount.Inc()
		sp.Arg("resync_to", int64(ack.Want))
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
	s.mu.Lock()
	acked, cursor := s.acked, s.cursor
	s.mu.Unlock()
	lag := int64(stable) - int64(acked)
	if lag < 0 {
		lag = 0
	}
	unshipped := int64(stable) - int64(cursor) + 1
	if unshipped < 0 {
		unshipped = 0
	}
	s.lagLSN.Set(lag)
	s.lagRecords.Set(unshipped)
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
// sends probe batches when everything has been shipped but the ack horizon
// lags (the "lost final batch" case).  A transport that stops making
// progress — a severed link — fails after a bounded number of attempts.
func (s *Sender) Sync() error {
	const maxStalls = 8
	stalls := 0
	for {
		stable := s.log.StableLSN()
		s.mu.Lock()
		acked, cursor := s.acked, s.cursor
		s.mu.Unlock()
		if acked >= stable && cursor > stable {
			s.observeLag(stable)
			return nil
		}
		if cursor <= stable {
			if _, err := s.Pump(); err != nil {
				return err
			}
		} else {
			// Everything shipped, not everything acked: probe for the
			// standby's horizons (its Want rewinds the cursor if a batch
			// was lost in flight).
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
