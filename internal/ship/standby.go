package ship

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"logicallog/internal/backup"
	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/frame"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// StandbyConfig parameterizes a Standby.
type StandbyConfig struct {
	// Opts is the engine configuration the standby mirrors and, at
	// promotion, comes up as.  It must match the primary's policy, strategy,
	// and REDO test; Registry must resolve every shipped operation kind.
	// Obs/Tracer instrument the apply pipeline and the promoted engine;
	// InstallTrace observes every mirrored install (and, being part of the
	// options, the promoted engine's).
	Opts core.Options
	// TruncateOnCheckpoint makes the standby truncate its own log at each
	// shipped checkpoint's redo horizon, as the primary did.  Off, the
	// standby keeps its full log prefix (the crash explorer needs that for
	// its explainability oracle).
	TruncateOnCheckpoint bool
}

// ErrDown is returned by Deliver while the standby is down — crashed, or
// taken down by a record that failed to apply — and wraps the failure in the
// delivery that took it down.  Restart brings the standby back.
var ErrDown = errors.New("ship: standby is down (Restart first)")

// StandbyStats counts what the standby did with the stream.
type StandbyStats struct {
	// Batches counts delivered batches (probes included).
	Batches int64
	// Applied counts operation records replayed.
	Applied int64
	// SkippedInstalled counts operations bypassed by a vSI witness
	// (bootstrap image already reflected them).
	SkippedInstalled int64
	// SkippedUnexposed counts operations bypassed by rSI reasoning.
	SkippedUnexposed int64
	// Voided counts trial executions voided.
	Voided int64
	// Dups counts records discarded as already applied.
	Dups int64
	// Gaps counts deliveries that stopped short at a missing LSN.
	Gaps int64
	// Installs counts mirrored install/flush records.
	Installs int64
}

// Standby is the receiving side of log shipping: a warm replica that applies
// the primary's records as they arrive — continuous redo — so that at any
// moment its log and stable store are exactly those of a crashed primary,
// and promotion is ordinary recovery.
type Standby struct {
	cfg StandbyConfig

	mu       sync.Mutex
	log      *wal.Log
	store    *stable.Store
	mgr      *cache.Manager
	dot      map[op.ObjectID]op.SI
	step     *recovery.Step
	origin   op.SI // first LSN ever shipped here (backup StartLSN, or 1)
	want     op.SI // next LSN to apply
	applied  op.SI // highest LSN applied
	down     bool  // crashed, awaiting Restart
	promoted bool
	stats    StandbyStats

	lane        *obs.Lane
	applyNs     *obs.Histogram
	promotionNs *obs.Histogram
	appliedC    *obs.Counter
	dupsC       *obs.Counter
	gapsC       *obs.Counter
	installsC   *obs.Counter
	promotionsC *obs.Counter
}

// NewStandby builds an empty standby that expects the stream from LSN 1.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	return newStandby(cfg, 1, nil)
}

// Bootstrap builds a standby from a fuzzy backup image: the image becomes
// its stable store and the stream is expected from the backup's StartLSN.
// Each imaged object's vSI makes the replay skip exactly the operations the
// image already reflects (the vSI witness in the REDO test) — the same
// mechanism backup.MediaRecover uses.
func Bootstrap(cfg StandbyConfig, b *backup.Backup) (*Standby, error) {
	if b.StartLSN < 1 {
		return nil, fmt.Errorf("ship: backup has no StartLSN")
	}
	return newStandby(cfg, b.StartLSN, b.Objects)
}

func newStandby(cfg StandbyConfig, origin op.SI, image map[op.ObjectID]stable.Versioned) (*Standby, error) {
	if cfg.TruncateOnCheckpoint && !cfg.Opts.LogInstalls {
		// Without install records the standby never mirrors the primary's
		// installs, so its stable store lags arbitrarily behind the shipped
		// checkpoints' redo horizons — truncating to them would discard
		// records the standby still needs.
		return nil, fmt.Errorf("ship: TruncateOnCheckpoint requires LogInstalls")
	}
	if cfg.Opts.Registry == nil {
		cfg.Opts.Registry = op.NewRegistry()
	}
	if cfg.Opts.LogDevice == nil {
		cfg.Opts.LogDevice = wal.NewMemDevice()
	}
	log, err := wal.New(cfg.Opts.LogDevice)
	if err != nil {
		return nil, err
	}
	s := &Standby{
		cfg:     cfg,
		log:     log,
		store:   stable.NewStore(),
		origin:  origin,
		want:    origin,
		applied: origin - 1,
	}
	s.log.SetObs(s.cfg.Opts.Obs)
	if image != nil {
		s.store.Restore(image)
	}
	if err := s.resetVolatileLocked(); err != nil {
		return nil, err
	}
	r := cfg.Opts.Obs
	s.applyNs = r.Histogram("ship.apply.ns")
	s.promotionNs = r.Histogram("ship.promotion.ns")
	s.appliedC = r.Counter("ship.applied_ops")
	s.dupsC = r.Counter("ship.dups")
	s.gapsC = r.Counter("ship.gaps")
	s.installsC = r.Counter("ship.installs_mirrored")
	s.promotionsC = r.Counter("ship.promotions")
	s.lane = cfg.Opts.Tracer.Lane("ship-standby")
	return s, nil
}

// flight is the standby's decision flight recorder handle (nil-safe).
func (s *Standby) flight() *flight.Recorder { return s.cfg.Opts.Flight }

// Log exposes the standby's write-ahead log (a prefix copy of the primary's).
func (s *Standby) Log() *wal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Store exposes the standby's stable store.
func (s *Standby) Store() *stable.Store { return s.store }

// Want returns the next LSN the standby needs.
func (s *Standby) Want() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.want
}

// Applied returns the highest LSN the standby has applied.
func (s *Standby) Applied() op.SI {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Stats returns a snapshot of the standby's counters.
func (s *Standby) Stats() StandbyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Deliver applies one batch: records below the apply horizon are discarded
// as duplicates, a record above it stops the delivery (a gap the ack's Want
// reports), and in-order records run the continuous-redo pipeline.  The
// returned ack always carries the standby's current horizons, so even an
// empty probe batch elicits a useful ack.
func (s *Standby) Deliver(b *Batch) (Ack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return s.ackLocked(), ErrDown
	}
	if s.promoted {
		return Ack{Lost: true}, fmt.Errorf("ship: standby was promoted; it is a primary now")
	}
	sp := s.lane.Begin("apply-batch").
		Arg("seq", int64(b.Seq)).Arg("count", b.Count).Arg("first", int64(b.FirstLSN))
	defer sp.End()
	s.stats.Batches++
	data := b.Frames
	for len(data) > 0 {
		payload, n, ok := frame.Next(data)
		if !ok {
			return s.ackLocked(), fmt.Errorf("ship: corrupt frame in batch %d", b.Seq)
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return s.ackLocked(), fmt.Errorf("ship: corrupt record in batch %d: %w", b.Seq, err)
		}
		data = data[n:]
		if rec.LSN < s.want {
			s.stats.Dups++
			s.dupsC.Inc()
			s.flight().ShipApply(flight.DecDup, rec.LSN, s.want)
			continue
		}
		if rec.LSN > s.want {
			s.stats.Gaps++
			s.gapsC.Inc()
			s.flight().ShipApply(flight.DecGap, rec.LSN, s.want)
			break
		}
		if err := s.applyLocked(rec); err != nil {
			return s.ackLocked(), err
		}
		s.flight().ShipApply(flight.DecAccept, rec.LSN, s.want)
		s.applied = rec.LSN
		s.want = rec.LSN + 1
	}
	return s.ackLocked(), nil
}

func (s *Standby) ackLocked() Ack {
	if s.down {
		return Ack{Lost: true} // horizons of discarded state mean nothing
	}
	return Ack{Applied: s.applied, Durable: s.log.StableLSN(), Want: s.want}
}

// applyLocked runs one shipped record through the continuous-redo pipeline:
// append it to the standby's own log (keeping the log a byte-equivalent
// prefix copy of the primary's), then applyAppendedLocked.  A failure once the
// record is in the log takes the standby down: the log is a record ahead of
// the apply horizon, so a resend could never land, and the cache may hold a
// half-applied record.  Restart — which replays the durable log, that record
// included if it was forced, through the same step — is the one way back.
func (s *Standby) applyLocked(rec *wal.Record) error {
	var start time.Time
	if s.applyNs.Enabled() {
		start = time.Now()
	}
	if err := s.log.AppendShipped(rec); err != nil {
		return err
	}
	if err := s.applyAppendedLocked(rec); err != nil {
		s.crashLocked()
		return fmt.Errorf("%w: %w", ErrDown, err)
	}
	if s.applyNs.Enabled() {
		s.applyNs.Since(start)
	}
	return nil
}

// applyAppendedLocked forces the standby's log before anything the record
// installs can reach the store, replays the record (replayRecord), then
// accounts for it — a checkpoint optionally truncates the standby log.
func (s *Standby) applyAppendedLocked(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecInstall, wal.RecFlush, wal.RecCheckpoint:
		// WAL protocol: the flush must not outrun the standby's own
		// durable log (the primary forced through these ops' LSNs too).
		if err := s.log.ForceThrough(rec.LSN); err != nil {
			return err
		}
	}
	out, err := s.replayRecord(rec)
	if err != nil {
		return err
	}
	switch rec.Type {
	case wal.RecOperation:
		switch out {
		case recovery.Redone:
			s.stats.Applied++
			s.appliedC.Inc()
		case recovery.Voided:
			s.stats.Voided++
		case recovery.SkippedInstalled:
			s.stats.SkippedInstalled++
		case recovery.SkippedUnexposed:
			s.stats.SkippedUnexposed++
		}
	case wal.RecInstall, wal.RecFlush:
		s.stats.Installs++
		s.installsC.Inc()
	case wal.RecCheckpoint:
		if s.cfg.TruncateOnCheckpoint {
			return s.log.Truncate(rec.Checkpoint.RedoStart(rec.LSN))
		}
	}
	return nil
}

// replayRecord is the per-record body of continuous redo, shared by live
// apply and restart replay: fold the record into the incremental dirty
// object table, then run an operation through the redo step (exactly as
// crash recovery would) or mirror an install/flush record through the cache
// manager's installation step.  It returns the operation's outcome.  Records
// go through in strict log order, never through the chain scheduler: the
// standby's write graph must regrow with the primary's node groupings for
// the next install record to find its node.
func (s *Standby) replayRecord(rec *wal.Record) (out recovery.Outcome, err error) {
	recovery.UpdateDirtyTable(s.dot, rec, s.cfg.Opts.RedoTest)
	switch rec.Type {
	case wal.RecOperation:
		out, err = s.step.Apply(rec.Op)
	case wal.RecInstall:
		err = s.mgr.MirrorInstall(rec.Install)
	case wal.RecFlush:
		err = s.mgr.MirrorFlush(rec.Flush)
	}
	if err != nil {
		err = fmt.Errorf("ship: replay of %s record %d: %w", rec.Type, rec.LSN, err)
	}
	return out, err
}

// Crash simulates a standby crash: the unforced log tail and all volatile
// apply state are lost; the standby rejects deliveries until Restart.
func (s *Standby) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked()
}

func (s *Standby) crashLocked() {
	s.log.Crash()
	s.mgr.Crash()
	s.down = true
}

// Restart recovers a crashed standby over its own log and store — with the
// normal crash-recovery machinery when install records are shipped, or by
// replaying the continuous-apply loop when they are not (see
// replayLogLocked) — rebuilds the incremental dirty table, and re-arms the
// apply horizon at the durable log's end; the sender's next ack-driven
// rewind resends whatever the crash lost.
func (s *Standby) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		return fmt.Errorf("ship: Restart of a standby that is not down")
	}
	// Re-derive the log horizon purely from the device, as a process
	// restart would.  In particular a bootstrapped standby that crashed
	// before forcing anything comes back with an empty, fresh log whose
	// first shipped record re-adopts the stream origin.
	log, err := wal.New(s.cfg.Opts.LogDevice)
	if err != nil {
		return err
	}
	s.log = log
	s.log.SetObs(s.cfg.Opts.Obs)
	if err := s.replayLogLocked(); err != nil {
		return err
	}
	s.want = s.log.StableLSN() + 1
	if s.want < s.origin {
		s.want = s.origin
	}
	s.applied = s.want - 1
	s.down = false
	return nil
}

// replayLogLocked recovers the standby by deterministically re-running the
// continuous-apply loop over the durable log — not by recovery.Recover.  The
// distinction matters for two reasons.  First, a restarted standby must keep
// mirroring the primary's install records, which requires its write graph to
// regrow with exactly the node groupings continuous apply had; an
// analysis/redo pass rebuilds a fresh graph whose groupings can differ.
// Replaying the same record sequence through the same per-record body
// (replayRecord) is deterministic, so the rebuilt state is precisely what the
// apply loop had produced for the durable prefix.  Second, when no install records are
// shipped the standby's store lags the shipped checkpoints' dirty tables
// (they describe the *primary's* stable state), so those checkpoints cannot
// seed an analysis pass — the same reason backup.MediaRecover distrusts
// them.  The vSI witness in the REDO test makes the replay skip exactly the
// operations the store already reflects, and MirrorInstall/MirrorFlush treat
// the witnessed-away operations as bootstrap skips.
func (s *Standby) replayLogLocked() error {
	if err := s.resetVolatileLocked(); err != nil {
		return err
	}
	sc, err := s.log.Scan(s.log.FirstLSN())
	if err != nil {
		return err
	}
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		// Re-flushing is idempotent: a mirrored install flushes the replayed
		// cached value, which replay determinism makes equal to what was
		// flushed before the crash.
		if _, err := s.replayRecord(rec); err != nil {
			return err
		}
	}
}

// resetVolatileLocked gives the standby an empty cache manager and dirty
// object table, and the redo step over them.
func (s *Standby) resetVolatileLocked() error {
	o := s.cfg.Opts
	cfg := o.CacheConfig()
	mgr, err := cache.NewManager(cfg, s.log, s.store)
	if err != nil {
		return err
	}
	s.mgr = mgr
	s.dot = make(map[op.ObjectID]op.SI)
	s.step = recovery.NewStep(recovery.Options{Test: o.RedoTest, Cache: cfg, Flight: o.Flight}, "standby", s.mgr, s.dot)
	return nil
}

// Promote fails the standby over to primary: it forces the applied tail
// durable (the queue has been drained — deliveries are synchronous), runs
// the normal analysis/redo recovery over its own log and store, and returns
// the engine that comes up, ready for normal operation.  The standby stops
// accepting deliveries.
func (s *Standby) Promote() (*core.Engine, *recovery.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, nil, fmt.Errorf("ship: cannot promote a crashed standby; Restart first")
	}
	if s.promoted {
		return nil, nil, fmt.Errorf("ship: standby already promoted")
	}
	lane := s.cfg.Opts.Tracer.Lane("promotion")
	var start time.Time
	if s.promotionNs.Enabled() {
		start = time.Now()
	}
	sp := lane.Begin("force-tail")
	if err := s.log.Force(); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End()
	if !s.cfg.Opts.LogInstalls {
		// No install records were shipped, so the shipped checkpoints' redo
		// horizons describe the primary's stable state, not this store.
		// Flushing all cached state first stamps every object's vSI at its
		// last writer, and the recovery redo pass's vSI witness then skips
		// exactly what is flushed — the checkpoint horizon becomes harmless.
		sp = lane.Begin("purge-cache")
		err := s.mgr.PurgeAll()
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	sp = lane.Begin("recover")
	eng, res, err := core.Adopt(s.cfg.Opts, s.log, s.store)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.Arg("redo_start", int64(res.RedoStart)).
		Arg("scanned", res.ScannedOps).Arg("redone", res.Redone).
		Arg("skipped_installed", res.SkippedInstalled).End()
	if s.promotionNs.Enabled() {
		s.promotionNs.Since(start)
	}
	s.promotionsC.Inc()
	s.promoted = true
	return eng, res, nil
}
