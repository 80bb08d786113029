// Package core wires the recovery system together: the write-ahead log, the
// stable store, the cache manager with its write graph, and crash recovery.
// It is the engine beneath the public logicallog API and the harness the
// experiments and simulations drive.
package core

import (
	"sort"
	"sync"

	"logicallog/internal/cache"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// Options configures an Engine.
type Options struct {
	// Policy selects the write graph: writegraph.PolicyRW (the paper) or
	// writegraph.PolicyW (the [8] baseline).
	Policy writegraph.Policy
	// Strategy selects the multi-object flush mechanism.
	Strategy cache.FlushStrategy
	// RedoTest selects the REDO predicate used by Recover.
	RedoTest recovery.RedoTest
	// LogInstalls enables installation/flush records (Section 5); on by
	// default in DefaultOptions.
	LogInstalls bool
	// Physiological, when set, converts every executed operation into
	// physical/physiological form before logging: data values read from
	// other objects are materialized into the log record, exactly the
	// transformation of Figure 1(b).  This is the paper's comparison
	// baseline.
	Physiological bool
	// Registry resolves transformation functions; defaults to a fresh
	// registry with builtins.
	Registry *op.Registry
	// LogDevice backs the write-ahead log; defaults to an in-memory device.
	LogDevice wal.Device
	// InstallTrace, when non-nil, observes every write-graph node install
	// (debug and inspection use only).
	InstallTrace func(view *writegraph.NodeView)
	// Obs, when non-nil, receives hot-path metrics from every layer (WAL
	// append/force latency, group-commit batch sizes, flush-set sizes,
	// write-graph gauges, redo-chain distributions).  Engine.Metrics()
	// adds the per-package Stats counters to its snapshot.  Nil disables
	// instrumentation at ~0 cost.
	Obs *obs.Registry
	// Flight, when non-nil, is the flight recorder: every recovery and
	// promotion phase, redo decision, install-graph value resolution, ship
	// batch outcome, and checkpoint/truncation horizon move is recorded
	// (and optionally spilled to a crash-tolerant file) for timelines and
	// post-hoc forensics with llinspect -explain / -forensics.  Nil
	// disables it at ~0 cost.
	Flight *flight.Recorder
}

// DefaultOptions returns the paper's recommended configuration: refined
// write graph, identity-write flush breakup, generalized rSI REDO test, and
// installation logging.
func DefaultOptions() Options {
	return Options{
		Policy:      writegraph.PolicyRW,
		Strategy:    cache.StrategyIdentityWrite,
		RedoTest:    recovery.TestRSI,
		LogInstalls: true,
	}
}

// Engine is a recoverable object store with logical logging.  Its exported
// methods are safe for concurrent use: a single mutex serializes them, which
// matches the paper's model (recovery ordering, not latching, is the
// subject).  Concurrency inside Recover is managed by the redo scheduler.
type Engine struct {
	mu    sync.Mutex
	opts  Options
	reg   *op.Registry
	log   *wal.Log
	store *stable.Store
	mgr   *cache.Manager

	// gate, when non-nil, is an on-demand redo drain still in progress
	// (RecoverOnDemand).  Every access path drains the chains it needs
	// before touching the cache; global operations (installs, checkpoints)
	// wait for the full drain.  Cleared once the drain completes cleanly.
	gate *recovery.OnDemand

	// history keeps every executed operation for test oracles; it is
	// volatile and carries no recovery responsibility.
	history []*op.Operation
}

// newEngine defaults the registry and builds the engine shell over log and
// store, wiring the log's metrics.  The cache manager is attached by the
// caller: fresh (New) or recovered (Adopt).
func newEngine(opts Options, log *wal.Log, store *stable.Store) *Engine {
	if opts.Registry == nil {
		opts.Registry = op.NewRegistry()
	}
	log.SetObs(opts.Obs)
	return &Engine{opts: opts, reg: opts.Registry, log: log, store: store}
}

// CacheConfig is the one place engine options become the cache manager's,
// for the engine and the warm standby alike.
func (o Options) CacheConfig() cache.Config {
	return cache.Config{
		Policy:       o.Policy,
		Strategy:     o.Strategy,
		LogInstalls:  o.LogInstalls,
		Registry:     o.Registry,
		InstallTrace: o.InstallTrace,
		Obs:          o.Obs,
	}
}

// New builds an engine from options.
func New(opts Options) (*Engine, error) {
	if opts.LogDevice == nil {
		opts.LogDevice = wal.NewMemDevice()
	}
	log, err := wal.New(opts.LogDevice)
	if err != nil {
		return nil, err
	}
	e := newEngine(opts, log, stable.NewStore())
	e.mgr, err = cache.NewManager(e.opts.CacheConfig(), log, e.store)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Adopt builds an engine over an existing log and stable store by running
// full crash recovery on them — the failover path of a warm standby (see
// internal/ship): the standby's mirrored log and store are exactly a crashed
// primary's, so promotion is ordinary recovery followed by normal operation.
// The options' Registry must resolve every operation kind in the log.  The
// recovery result is returned alongside the engine; the engine's history
// starts empty (it never saw the operations execute).
func Adopt(opts Options, log *wal.Log, store *stable.Store) (*Engine, *recovery.Result, error) {
	e := newEngine(opts, log, store)
	res, err := recovery.Recover(log, store, e.recoveryOptions())
	if err != nil {
		return nil, nil, err
	}
	e.mgr = res.Manager
	return e, res, nil
}

// recoveryOptions is the one place the engine's options become recovery's.
func (e *Engine) recoveryOptions() recovery.Options {
	return recovery.Options{
		Test:   e.opts.RedoTest,
		Cache:  e.opts.CacheConfig(),
		Flight: e.opts.Flight,
	}
}

// Registry returns the engine's function registry (substrates register
// their transformations on it).
func (e *Engine) Registry() *op.Registry { return e.reg }

// Log exposes the write-ahead log (statistics, inspection).
func (e *Engine) Log() *wal.Log { return e.log }

// Store exposes the stable store (statistics, snapshots).
func (e *Engine) Store() *stable.Store { return e.store }

// Cache exposes the cache manager.
func (e *Engine) Cache() *cache.Manager { return e.mgr }

// History returns the operations executed since engine creation (volatile;
// survives nothing — test oracle only).
func (e *Engine) History() []*op.Operation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.history
}

// gateFor returns the active on-demand drain, or nil when none is running.
// Callers hold e.mu.  A cleanly completed drain is retired here so the
// fast path (Done) is consulted at most once after completion.
func (e *Engine) gateFor() *recovery.OnDemand {
	if e.gate == nil {
		return nil
	}
	if e.gate.Done() {
		e.gate = nil
		return nil
	}
	return e.gate
}

// gateRead drains the chains a read of ids needs (no-op when no on-demand
// drain is running).  Callers hold e.mu; the drain's background replayer
// never takes it, so blocking here cannot deadlock.
func (e *Engine) gateRead(ids ...op.ObjectID) error {
	if g := e.gateFor(); g != nil {
		return g.RequireRead(ids...)
	}
	return nil
}

// gateOp drains the chains executing o needs.
func (e *Engine) gateOp(o *op.Operation) error {
	if g := e.gateFor(); g != nil {
		return g.RequireOp(o)
	}
	return nil
}

// gateRange drains every chain writing an object id in [lo, hi).
func (e *Engine) gateRange(lo, hi op.ObjectID) error {
	if g := e.gateFor(); g != nil {
		return g.RequireRange(lo, hi)
	}
	return nil
}

// drainGate completes the on-demand drain, if one is running.  Operations
// with whole-cache footprints (installs, checkpoints, horizon computations)
// call this: they are only correct against fully recovered state.
func (e *Engine) drainGate() error {
	g := e.gateFor()
	if g == nil {
		return nil
	}
	_, err := g.Wait()
	if err == nil {
		e.gate = nil
	}
	return err
}

// Execute runs one operation through the engine.  Under the Physiological
// option the operation is first lowered to the Figure 1(b) form.
func (e *Engine) Execute(o *op.Operation) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Gate before lowering: lowering reads the operation's read set from
	// the cache, which must already hold recovered values.
	if err := e.gateOp(o); err != nil {
		return err
	}
	if e.opts.Physiological {
		lowered, err := e.lowerPhysiological(o)
		if err != nil {
			return err
		}
		o = lowered
	}
	if err := e.mgr.Execute(o); err != nil {
		return err
	}
	e.history = append(e.history, o)
	return nil
}

// lowerPhysiological converts a logical operation into physical form by
// materializing its outputs: the engine computes the operation's writes now
// and logs them as values.  Physiological single-object self-transforms
// (Ex, W_PL) pass through unchanged — they are already Figure 1(b) legal.
func (e *Engine) lowerPhysiological(o *op.Operation) (*op.Operation, error) {
	switch o.Kind {
	case op.KindExecute, op.KindPhysioWrite, op.KindPhysicalWrite,
		op.KindIdentityWrite, op.KindCreate, op.KindDelete:
		return o, nil
	}
	// Compute the writes against current state and log them physically.
	writes, err := e.mgr.ComputeWrites(o)
	if err != nil {
		return nil, err
	}
	lowered := &op.Operation{
		Kind:     op.KindPhysicalWrite,
		WriteSet: append([]op.ObjectID(nil), o.WriteSet...),
		Values:   writes,
	}
	return lowered, nil
}

// Get returns the current value of x.
func (e *Engine) Get(x op.ObjectID) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateRead(x); err != nil {
		return nil, err
	}
	return e.mgr.Get(x)
}

// Objects returns, sorted, the ids of every live object with id in [lo, hi)
// (hi == "" means unbounded): the stable store's population overlaid with
// the cache — a cached creation appears, a cached deletion disappears.
// During an on-demand drain the range's writer chains are drained first, so
// the enumeration matches what a full-redo restart would list.
func (e *Engine) Objects(lo, hi op.ObjectID) ([]op.ObjectID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateRange(lo, hi); err != nil {
		return nil, err
	}
	live := make(map[op.ObjectID]bool)
	for _, x := range e.store.IDs() {
		if x < lo || (hi != "" && x >= hi) {
			continue
		}
		live[x] = true
	}
	e.mgr.RangeLive(lo, hi, func(x op.ObjectID, exists bool) bool {
		live[x] = exists
		return true
	})
	ids := make([]op.ObjectID, 0, len(live))
	for x, ok := range live {
		if ok {
			ids = append(ids, x)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// InstallOne installs one minimal write-graph node (cache pressure).
func (e *Engine) InstallOne() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	_, err := e.mgr.InstallMinimal()
	if err == cache.ErrNothingToInstall {
		return nil
	}
	return err
}

// FlushAll installs every uninstalled operation (full purge).
func (e *Engine) FlushAll() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return err
	}
	return e.mgr.PurgeAll()
}

// Checkpoint writes a checkpoint record and truncates the log at the
// truncation point the dirty table then justifies; the flight recorder sees
// both horizon moves.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	lsn, err := e.checkpointLocked()
	if err != nil {
		return err
	}
	tp := e.mgr.TruncationPoint(lsn)
	if err := e.log.Truncate(tp); err != nil {
		return err
	}
	e.opts.Flight.Truncate(tp)
	return nil
}

// CheckpointOnly writes (and forces) a checkpoint record without truncating
// the log.  The crash-schedule explorer uses it so its oracle can still
// replay the full durable history from the run's initial snapshot.
func (e *Engine) CheckpointOnly() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.checkpointLocked()
	return err
}

// checkpointLocked is the checkpoint body: complete any on-demand drain (a
// checkpoint is only correct against fully recovered state), write and force
// the checkpoint record, and record where it landed.
func (e *Engine) checkpointLocked() (op.SI, error) {
	if err := e.drainGate(); err != nil {
		return 0, err
	}
	lsn, err := e.mgr.Checkpoint()
	if err != nil {
		return 0, err
	}
	if e.opts.Flight != nil {
		e.opts.Flight.Checkpoint(lsn, int64(len(e.mgr.DirtyTable())))
	}
	return lsn, nil
}

// Crash simulates a crash: the unforced log tail, the cache, and the write
// graph are lost; the stable log and stable store survive.
func (e *Engine) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Stop any on-demand drain first: its background replayer mutates the
	// cache manager being discarded, and the volatile state is lost anyway.
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	e.log.Crash()
	e.mgr.Crash()
}

// Recover runs crash recovery and resumes normal operation on the recovered
// volatile state.  It returns the recovery statistics.
func (e *Engine) Recover() (*recovery.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	res, err := recovery.Recover(e.log, e.store, e.recoveryOptions())
	if err != nil {
		return nil, err
	}
	e.mgr = res.Manager
	return res, nil
}

// RecoverMedia resumes normal operation after a media failure, once the
// caller has restored a backup image into the stable store
// (internal/backup): it rebuilds the cache manager over that image, replays
// every operation logged at or after from under the vSI test, and adopts the
// result.  The log's dirty-table bookkeeping (checkpoints, install records)
// describes the lost store, not the image, so there is no analysis: the
// replay starts with an empty dirty table and each object's vSI makes it
// exact per object.
func (e *Engine) RecoverMedia(from op.SI) (*recovery.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	opts := e.recoveryOptions()
	opts.Test = recovery.TestVSI
	mgr, err := cache.NewManager(opts.Cache, e.log, e.store)
	if err != nil {
		return nil, err
	}
	res, err := recovery.Redo(e.log, mgr, nil, from, opts)
	if err != nil {
		return nil, err
	}
	e.mgr = res.Manager
	return res, nil
}

// RecoverOnDemand starts instant recovery: analysis runs now, the redo
// suffix is partitioned into dependency chains, one background replayer
// begins draining them, and the engine resumes serving immediately — every
// access path first drains exactly the chains its objects need (Require*
// gating), so each request observes the same state a completed full redo
// would have produced.  The returned scheduler exposes drain progress (ChainCounts,
// Done) and completion (Wait); the engine clears the gate itself once the
// drain finishes cleanly.
func (e *Engine) RecoverOnDemand() (*recovery.OnDemand, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate != nil {
		e.gate.Abort()
		e.gate = nil
	}
	od, err := recovery.StartOnDemand(e.log, e.store, e.recoveryOptions())
	if err != nil {
		return nil, err
	}
	e.mgr = od.Manager()
	e.gate = od
	return od, nil
}

// RecoveryHorizon returns the earliest log LSN a recovery of the engine's
// current stable state could need: the minimum rSI over dirty objects,
// bounded by the first unforced LSN.  A backup image or freshly bootstrapped
// standby that starts replay here misses nothing (internal/backup,
// internal/ship use this as their replay origin).
func (e *Engine) RecoveryHorizon() (op.SI, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.drainGate(); err != nil {
		return 0, err
	}
	return e.mgr.TruncationPoint(e.log.StableLSN() + 1), nil
}

// Stats bundles the engine's counters for reporting.
type Stats struct {
	Log   wal.Stats
	Store stable.IOStats
	Cache cache.Stats
}

// Stats returns a snapshot of all counters, read under e.mu.  Every engine
// mutator holds e.mu, so the snapshot is one cut of their work.  An on-demand
// drain's background replayer (RecoverOnDemand) counts cache work and store
// reads without e.mu, so while a drain runs those counters may move between
// the reads.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Log: e.log.Stats(), Store: e.store.Stats(), Cache: e.mgr.Stats()}
}

// Metrics returns the unified observability view: the obs registry's
// counters, gauges, and histograms (empty when Options.Obs is nil) plus the
// log's, store's and cache manager's counters, each named by the package that
// counts it (wal.Stats, stable.IOStats and cache.Stats AddTo).  Like Stats,
// it is read under e.mu.
func (e *Engine) Metrics() obs.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.opts.Obs.Snapshot()
	e.log.Stats().AddTo(s.Counters)
	e.store.Stats().AddTo(s.Counters)
	e.mgr.Stats().AddTo(s.Counters)
	if e.opts.Flight != nil {
		events, drops, spilled := e.opts.Flight.Counters()
		s.Counters["flight.events"] = events
		s.Counters["flight.ring_drops"] = drops
		s.Counters["flight.spill_bytes"] = spilled
	}
	return s
}

// ResetStats zeroes every counter source — log, store, cache, and the obs
// registry — atomically under the engine mutex, so benchmark phases start
// from a consistent all-zero cut with no mutator racing the reset.
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.ResetStats()
	e.store.ResetStats()
	e.mgr.ResetStats()
	e.opts.Obs.Reset()
}
