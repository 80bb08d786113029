// Package cache implements the cache manager (CM) of the recovery system:
// the dirty object table, operation execution against cached state, the
// PurgeCache installation algorithm of Figure 4 driven by a write graph, the
// cache-manager-initiated identity writes of Section 4 that break up
// multi-object atomic flush sets, recovery-SI maintenance, checkpoints, and
// log truncation.
//
// The CM's duty (Section 3) is to ensure there is always a prefix set I of
// installed operations that explains the stable database.  It discharges
// that duty by flushing write-graph nodes only when they are minimal and by
// flushing each node's vars atomically.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/graph"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// FlushStrategy selects how a multi-object atomic flush set is handled.
type FlushStrategy uint8

const (
	// StrategyIdentityWrite is the paper's contribution: the CM logs
	// identity writes W_IP(X) to peel objects out of the flush set until a
	// single object remains, which is then flushed alone (Section 4).
	StrategyIdentityWrite FlushStrategy = iota
	// StrategyShadow flushes multi-object sets atomically with the shadow
	// mechanism (System R).
	StrategyShadow
	// StrategyFlushTxn flushes multi-object sets atomically with a flush
	// transaction (log values, commit, update in place).
	StrategyFlushTxn
)

func (s FlushStrategy) String() string {
	switch s {
	case StrategyIdentityWrite:
		return "identity-write"
	case StrategyShadow:
		return "shadow"
	case StrategyFlushTxn:
		return "flush-txn"
	}
	return fmt.Sprintf("FlushStrategy(%d)", uint8(s))
}

// Config parameterizes a Manager.
type Config struct {
	// Policy selects the write graph (W or rW).
	Policy writegraph.Policy
	// Strategy selects the multi-object flush mechanism.
	Strategy FlushStrategy
	// LogInstalls controls whether RecInstall records are written when
	// nodes are installed.  They enable the analysis pass to advance rSIs
	// (Section 5); turning them off is the E10/ablation baseline.
	LogInstalls bool
	// Registry resolves operation transformations.
	Registry *op.Registry
	// InstallTrace, when non-nil, receives a snapshot of every installed
	// write-graph node (debug and inspection use only).
	InstallTrace func(view *writegraph.NodeView)
	// Obs, when non-nil, receives the manager's hot-path metrics:
	// atomic-flush-set and Notx size distributions, install latency,
	// write-graph node/operation gauges, and transient-retry backoff.
	Obs *obs.Registry
}

// cacheObs holds the manager's optional metric handles; all nil (and hence
// no-ops) when Config.Obs is unset.
type cacheObs struct {
	// flushSetSize is |vars(n)| per installed node — the atomic-flush-set
	// size distribution E3 reasons about.
	flushSetSize *obs.Histogram
	// notxSize is |Notx(n)| per installed node (installed without flushing).
	notxSize *obs.Histogram
	// installNs is the installation step's latency (flush + graph removal +
	// rSI advance), on a primary and a standby alike.
	installNs *obs.Histogram
	// wgNodes/wgOps track the live write graph after every AddOp.
	wgNodes *obs.Gauge
	wgOps   *obs.Gauge
	// retryBackoffNs is the transient-retry backoff slept per stable-batch
	// retry attempt.
	retryBackoffNs *obs.Histogram
	retries        *obs.Counter
}

func newCacheObs(r *obs.Registry) cacheObs {
	if r == nil {
		return cacheObs{}
	}
	return cacheObs{
		flushSetSize:   r.Histogram("cache.install.flush_set_size"),
		notxSize:       r.Histogram("cache.install.notx_size"),
		installNs:      r.Histogram("cache.install.ns"),
		wgNodes:        r.Gauge("writegraph.nodes"),
		wgOps:          r.Gauge("writegraph.ops"),
		retryBackoffNs: r.Histogram("cache.retry.backoff_ns"),
		retries:        r.Counter("cache.retry.attempts"),
	}
}

// Stats counts cache-manager activity.
type Stats struct {
	// OpsExecuted counts operations applied (normal execution + redo).
	OpsExecuted int64
	// Installs counts write-graph nodes installed.
	Installs int64
	// IdentityWrites counts CM-initiated W_IP operations.
	IdentityWrites int64
	// MultiObjectFlushes counts installs whose final flush wrote >1 object.
	MultiObjectFlushes int64
	// ObjectsFlushed counts objects written to the stable store by installs.
	ObjectsFlushed int64
	// InstalledNotFlushed counts objects installed via Notx (no flush).
	InstalledNotFlushed int64
	// Evictions counts clean-entry evictions.
	Evictions int64
	// Checkpoints counts checkpoint records written.
	Checkpoints int64
}

// AddTo sets the manager's counters in c under their metric names.
func (s Stats) AddTo(c map[string]int64) {
	c["cache.ops_executed"] = s.OpsExecuted
	c["cache.installs"] = s.Installs
	c["cache.identity_writes"] = s.IdentityWrites
	c["cache.multi_object_flushes"] = s.MultiObjectFlushes
	c["cache.objects_flushed"] = s.ObjectsFlushed
	c["cache.installed_not_flushed"] = s.InstalledNotFlushed
	c["cache.evictions"] = s.Evictions
	c["cache.checkpoints"] = s.Checkpoints
}

// ErrNotFound is returned when an object is in neither cache nor stable
// store (or has been deleted).
var ErrNotFound = errors.New("cache: object not found")

// entry is a dirty-object-table row.
type entry struct {
	val    []byte
	exists bool // false after delete
	// vsi is the SI of the last operation applied to the cached value.
	vsi op.SI
	// pending lists the LSNs of uninstalled operations that wrote this
	// object, ascending.  rSI = pending[0]; dirty ⇔ len(pending) > 0.
	pending []op.SI
}

// dirty reports whether the object has an uninstalled write.
func (e *entry) dirty() bool { return len(e.pending) > 0 }

func (e *entry) rsi() op.SI {
	if len(e.pending) == 0 {
		return op.NilSI
	}
	return e.pending[0]
}

// Manager is the cache manager.
//
// Normal operation is engine-serialized (the paper's concerns are recovery
// ordering, not latching).  The replay path — Get, CurrentVSI,
// TryApplyLogged — is additionally safe for concurrent use by recovery's
// parallel redo workers under one invariant the redo scheduler guarantees:
// two operations that conflict (one writes an object the other reads or
// writes) are never replayed concurrently.  tableMu protects only the
// dirty object table's map structure; entry *contents* need no lock because
// every entry is only ever mutated by the single chain that owns its object.
type Manager struct {
	cfg   Config
	log   *wal.Log
	store *stable.Store
	wg    *writegraph.Graph
	wgMu  sync.Mutex // guards wg.AddOp from concurrent redo workers

	tableMu sync.RWMutex
	table   map[op.ObjectID]*entry

	// Counters behind Stats, updated atomically because redo workers
	// apply operations concurrently.
	opsExecuted         atomic.Int64
	installs            atomic.Int64
	identityWrites      atomic.Int64
	multiObjectFlushes  atomic.Int64
	objectsFlushed      atomic.Int64
	installedNotFlushed atomic.Int64
	evictions           atomic.Int64
	checkpoints         atomic.Int64

	obs cacheObs
}

// NewManager builds a cache manager over the given log and stable store.
func NewManager(cfg Config, log *wal.Log, store *stable.Store) (*Manager, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cache: Config.Registry is required")
	}
	m := &Manager{
		cfg:   cfg,
		log:   log,
		store: store,
		wg:    writegraph.New(cfg.Policy),
		table: make(map[op.ObjectID]*entry),
		obs:   newCacheObs(cfg.Obs),
	}
	return m, nil
}

// lookup returns the cached entry for x, if any.
func (m *Manager) lookup(x op.ObjectID) (*entry, bool) {
	m.tableMu.RLock()
	e, ok := m.table[x]
	m.tableMu.RUnlock()
	return e, ok
}

// insert publishes e as x's entry unless one appeared meanwhile (two chains
// read-faulting the same never-written object), in which case the existing
// entry wins.
func (m *Manager) insert(x op.ObjectID, e *entry) *entry {
	m.tableMu.Lock()
	defer m.tableMu.Unlock()
	if cur, ok := m.table[x]; ok {
		return cur
	}
	m.table[x] = e
	return e
}

func (m *Manager) remove(x op.ObjectID) {
	m.tableMu.Lock()
	delete(m.table, x)
	m.tableMu.Unlock()
}

// forEach visits every cached entry (engine-serialized callers only).
func (m *Manager) forEach(fn func(x op.ObjectID, e *entry)) {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
	for x, e := range m.table {
		fn(x, e)
	}
}

// RangeLive visits every cached object whose id falls in [lo, hi) (hi == ""
// means unbounded) and reports whether it currently exists (false for cached
// deletions).  Iteration stops early when fn returns false.  Safe while
// replay of chains OUTSIDE the range is still running concurrently: the id
// filter is applied before any entry field is read, and an in-range entry's
// contents are only mutated by the chains that touch it — which the caller
// must have drained (Engine gates enumeration on RequireRange).  Visit order
// is map order, not key order; callers wanting sorted output must sort.
func (m *Manager) RangeLive(lo, hi op.ObjectID, fn func(x op.ObjectID, exists bool) bool) {
	m.tableMu.RLock()
	defer m.tableMu.RUnlock()
	for x, e := range m.table {
		if x < lo || (hi != "" && x >= hi) {
			continue
		}
		if !fn(x, e.exists) {
			return
		}
	}
}

// Stats returns a snapshot of the manager's counters.  Each counter is read
// atomically; Engine.Stats makes the set coherent under the engine mutex.
func (m *Manager) Stats() Stats {
	return Stats{
		OpsExecuted:         m.opsExecuted.Load(),
		Installs:            m.installs.Load(),
		IdentityWrites:      m.identityWrites.Load(),
		MultiObjectFlushes:  m.multiObjectFlushes.Load(),
		ObjectsFlushed:      m.objectsFlushed.Load(),
		InstalledNotFlushed: m.installedNotFlushed.Load(),
		Evictions:           m.evictions.Load(),
		Checkpoints:         m.checkpoints.Load(),
	}
}

// ResetStats zeroes the manager's counters (benchmark phases; Engine's
// coherent ResetStats resets the WAL, store, cache, and obs registry
// together under the engine mutex).
func (m *Manager) ResetStats() {
	m.opsExecuted.Store(0)
	m.installs.Store(0)
	m.identityWrites.Store(0)
	m.multiObjectFlushes.Store(0)
	m.objectsFlushed.Store(0)
	m.installedNotFlushed.Store(0)
	m.evictions.Store(0)
	m.checkpoints.Store(0)
}

// WriteGraph exposes the manager's write graph for inspection.
func (m *Manager) WriteGraph() *writegraph.Graph { return m.wg }

// DirtyCount returns the number of dirty objects.
func (m *Manager) DirtyCount() int {
	n := 0
	m.forEach(func(_ op.ObjectID, e *entry) {
		if e.dirty() {
			n++
		}
	})
	return n
}

// Get returns the current value of x, faulting it in from the stable store
// on a miss.  Deleted objects and objects absent everywhere return
// ErrNotFound.
func (m *Manager) Get(x op.ObjectID) ([]byte, error) {
	v, err := m.Borrow(x)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Borrow is Get without the copy, for transform inputs: it returns the
// cached slice itself, capped at its length so an append by the borrower
// reallocates instead of writing into the entry's spare capacity.  The
// caller must not modify it.  Cached values are never changed in place —
// a write replaces the slice — so a borrowed value stays valid.
func (m *Manager) Borrow(x op.ObjectID) ([]byte, error) {
	e, err := m.fault(x)
	if err != nil {
		return nil, err
	}
	if !e.exists {
		return nil, fmt.Errorf("%w: %q (deleted)", ErrNotFound, x)
	}
	return e.val[:len(e.val):len(e.val)], nil
}

// VSI returns the cached object's state identifier (for tests/inspection).
func (m *Manager) VSI(x op.ObjectID) (op.SI, bool) {
	e, ok := m.lookup(x)
	if !ok {
		return 0, false
	}
	return e.vsi, true
}

// CurrentVSI returns the state identifier of x in the recovering state: the
// cached vSI if x is cached (updated by prior redos), else the stable
// store's vSI, else NilSI for an object that does not exist.  This is the
// vSI the REDO tests of Section 5 compare against lSIs.
func (m *Manager) CurrentVSI(x op.ObjectID) op.SI {
	if e, ok := m.lookup(x); ok {
		return e.vsi
	}
	if v, err := m.store.Read(x); err == nil {
		return v.VSI
	}
	return op.NilSI
}

// RSI returns the cached object's recovery state identifier, NilSI if clean.
func (m *Manager) RSI(x op.ObjectID) (op.SI, bool) {
	e, ok := m.lookup(x)
	if !ok {
		return 0, false
	}
	return e.rsi(), true
}

func (m *Manager) fault(x op.ObjectID) (*entry, error) {
	if e, ok := m.lookup(x); ok {
		return e, nil
	}
	v, err := m.store.Read(x)
	if errors.Is(err, stable.ErrNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, x)
	}
	if err != nil {
		return nil, err
	}
	return m.insert(x, &entry{val: v.Val, exists: true, vsi: v.VSI}), nil
}

// Execute runs operation o during normal execution: it reads o's inputs,
// applies the transformation, logs o (assigning its LSN), applies the writes
// to the cache, and threads o into the write graph.  The WAL protocol defers
// forcing until installation.
func (m *Manager) Execute(o *op.Operation) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.LSN != op.NilSI {
		return fmt.Errorf("cache: operation %s already logged", o)
	}
	writes, err := m.ComputeWrites(o)
	if err != nil {
		return err
	}
	if _, err := m.log.AppendOp(o); err != nil {
		return err
	}
	return m.applyLogged(o, writes)
}

// TryApplyLogged performs the trial execution of Section 5: it computes the
// operation's writes and voids the redo (returning voided=true, no state
// change) if the transformation fails against inapplicable state or
// attempts to write outside its logged writeset.
func (m *Manager) TryApplyLogged(o *op.Operation) (voided bool, err error) {
	if o.LSN == op.NilSI {
		return false, fmt.Errorf("cache: TryApplyLogged requires a logged operation")
	}
	writes, cerr := m.ComputeWrites(o)
	if errors.Is(cerr, op.ErrUnknownFunc) {
		// Not inapplicable state: the registry lacks the operation's
		// domain, and voiding would silently drop its writes.
		return false, cerr
	}
	if cerr != nil {
		// Case (b)/(c) of Section 5: writeset violation or execution
		// exception against inapplicable state voids the redo.
		return true, nil
	}
	return false, m.applyLogged(o, writes)
}

// ComputeWrites runs o's transformation against the cached state and
// returns its writes in WriteSet order, changing nothing.  The reads are
// borrowed: the TransformFunc contract makes them read-only, so no read is
// copied.
func (m *Manager) ComputeWrites(o *op.Operation) ([][]byte, error) {
	reads := make([][]byte, len(o.ReadSet))
	for i, x := range o.ReadSet {
		v, err := m.Borrow(x)
		if err != nil {
			return nil, fmt.Errorf("cache: %s reads %q: %w", o, x, err)
		}
		reads[i] = v
	}
	return m.cfg.Registry.Apply(o, reads)
}

func (m *Manager) applyLogged(o *op.Operation, writes [][]byte) error {
	for i, x := range o.WriteSet {
		e, ok := m.lookup(x)
		if !ok {
			// A blind write may create the object; fault in the stable
			// version if present so the vSI baseline is right, otherwise
			// start fresh.
			if v, err := m.store.Read(x); err == nil {
				e = &entry{val: v.Val, exists: true, vsi: v.VSI}
			} else {
				e = &entry{}
			}
			e = m.insert(x, e)
		}
		if o.Kind == op.KindDelete {
			e.exists = false
			e.val = nil
		} else {
			e.exists = true
			e.val = writes[i]
		}
		e.vsi = o.LSN
		e.pending = append(e.pending, o.LSN)
	}
	m.wgMu.Lock()
	_, err := m.wg.AddOp(o)
	if err == nil && m.obs.wgNodes != nil {
		m.obs.wgNodes.Set(int64(m.wg.Len()))
		m.obs.wgOps.Set(int64(m.wg.OpCount()))
	}
	m.wgMu.Unlock()
	if err != nil {
		return err
	}
	m.opsExecuted.Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Installation (PurgeCache).
// ---------------------------------------------------------------------------

// InstallMinimal installs one minimal write-graph node (Figure 4's
// PurgeCache step) and returns the ids of objects flushed.  It returns
// ErrNothingToInstall when the write graph is empty.
//
// Identity-write breakup of a node can make that node temporarily
// non-minimal: peeling object X out of vars(n) adds inverse write-read edges
// q -> n from nodes that read the value n last wrote to X, which now must
// install first.  InstallMinimal then simply picks a new minimal node; the
// loop terminates because each identity write permanently shrinks some
// flush set.
func (m *Manager) InstallMinimal() ([]op.ObjectID, error) {
	maxAttempts := 2*m.wg.OpCount() + m.wg.Len() + 16
	for attempt := 0; attempt < maxAttempts; attempt++ {
		id, ok := m.wg.FirstMinimal()
		if !ok {
			if m.wg.Len() != 0 {
				return nil, fmt.Errorf("cache: write graph has %d nodes but no minimal node", m.wg.Len())
			}
			return nil, ErrNothingToInstall
		}
		vars, err := m.InstallNode(id)
		if errors.Is(err, errDeferred) {
			continue
		}
		return vars, err
	}
	return nil, fmt.Errorf("cache: InstallMinimal made no progress after %d attempts", maxAttempts)
}

// ErrNothingToInstall is returned by InstallMinimal on an empty write graph.
var ErrNothingToInstall = errors.New("cache: nothing to install")

// errDeferred signals that identity-write breakup re-ordered the graph and
// the caller should pick a new minimal node.
var errDeferred = errors.New("cache: node deferred by identity-write breakup")

// InstallNode installs the write-graph node id.  What is the primary's own
// happens here: under the identity-write strategy it first breaks
// multi-object flush sets apart with W_IP operations, it checks the node is
// still minimal, and — after the shared installation step has forced the
// log, flushed vars(n) and advanced the rSIs — logs the installation record.
// Until the install it reads only the node's flush set; the record is built
// from the snapshot the write graph hands back as it removes the node.
func (m *Manager) InstallNode(id graph.NodeID) ([]op.ObjectID, error) {
	vars, notx, ok := m.wg.FlushSet(id)
	if !ok {
		return nil, fmt.Errorf("cache: no write-graph node %d", id)
	}

	// Identity-write breakup (Section 4): peel objects out of the atomic
	// flush set one W_IP at a time.  Each W_IP is a normal logged physical
	// operation; under rW it lands in its own node and removes its object
	// from vars(n).
	if m.cfg.Strategy == StrategyIdentityWrite && len(vars) > 1 {
		if m.cfg.Policy != writegraph.PolicyRW {
			return nil, fmt.Errorf("cache: identity-write breakup requires the refined write graph (W flush sets never shrink)")
		}
		// Peel one object per identity write, re-planning each time: the
		// inverse write-read edges a peel adds can close a cycle whose
		// collapse merges another node (and its vars) into this one, so a
		// plan computed up front can go stale.
		maxPeels := 2*m.wg.OpCount() + len(vars) + len(notx) + 16
		for peel := 0; ; peel++ {
			vars, notx, ok = m.wg.FlushSet(id)
			if !ok {
				// A cycle collapse absorbed the node elsewhere.
				return nil, errDeferred
			}
			if len(vars) <= 1 {
				break
			}
			if peel >= maxPeels {
				return nil, fmt.Errorf("cache: identity-write breakup of node %d made no progress (vars %v)", id, vars)
			}
			plan, err := m.wg.IdentityBreakupPlan(id)
			if err != nil {
				return nil, err
			}
			if err := m.identityWrite(plan[0]); err != nil {
				return nil, err
			}
		}
	}
	// Breakup may have added inverse write-read predecessors; those nodes
	// must install first.
	if !m.wg.IsMinimal(id) {
		return nil, errDeferred
	}

	views, err := m.install([]graph.NodeID{id}, vars, notx)
	if err != nil {
		return nil, err
	}
	nv := views[0]

	// Log the installation (lazily; no force needed — Section 5 notes the
	// vSI check covers a lost install record).
	if m.cfg.LogInstalls {
		var rec *wal.Record
		if len(nv.Vars) == 1 && len(nv.Notx) == 0 {
			// Physiological special case: a plain flush record suffices.
			rec = wal.NewFlushRecord(nv.Vars[0], nv.Lastw[nv.Vars[0]])
		} else {
			// Flushed objects came clean (rSI nil); a Notx object's rSI is
			// the lSI of the blind write that made it unexposed.
			flushed := make([]wal.ObjectRSI, len(nv.Vars))
			for i, x := range nv.Vars {
				flushed[i].ID = x
			}
			unflushed := make([]wal.ObjectRSI, len(nv.Notx))
			for i, x := range nv.Notx {
				rsi, _ := m.RSI(x)
				unflushed[i] = wal.ObjectRSI{ID: x, RSI: rsi}
			}
			opLSNs := make([]op.SI, len(nv.Ops))
			for i, o := range nv.Ops {
				opLSNs[i] = o.LSN
			}
			rec = wal.NewInstallRecord(flushed, unflushed, opLSNs)
		}
		if _, err := m.log.Append(rec); err != nil {
			return nil, err
		}
	}
	return nv.Vars, nil
}

// install is the installation step — Figure 4's PurgeCache with Section 5's
// rSI advance — and the only code that writes the stable store.  The caller
// says what to install: the write-graph nodes whose operations become
// installed, the objects to flush atomically from cached state, and the Notx
// objects installed without flushing.  The primary reads all three off the
// node it chose (InstallNode); the standby derives them from the primary's
// install or flush record (mirror.go).
//
// The log force comes first (WAL protocol), then the stable write: when
// either fails, the write graph, the dirty object table and the counters are
// untouched, so the install can be re-run.  It returns the snapshots of the
// removed nodes, in removal order.
func (m *Manager) install(nodes []graph.NodeID, flush, notx []op.ObjectID) ([]*writegraph.NodeView, error) {
	var start time.Time
	if m.obs.installNs.Enabled() {
		start = time.Now()
	}

	// Build the flush batch from cached state.  Invariant: for x in
	// vars(n), the last writer of x is in ops(n) (later writers either
	// merged in or removed x from vars), so the cached value and its vSI
	// are Lastw(n,x)'s.
	entries := make([]stable.Entry, 0, len(flush))
	var through op.SI
	for _, x := range flush {
		e, ok := m.lookup(x)
		if !ok {
			return nil, fmt.Errorf("cache: flush set object %q not in cache", x)
		}
		entries = append(entries, stable.Entry{ID: x, Val: e.val, VSI: e.vsi, Delete: !e.exists})
		through = max(through, e.vsi)
	}
	// WAL protocol: every operation being installed must be on the stable
	// log before its effects reach the stable database.  Additionally, the
	// very legitimacy of installing a Notx object *without flushing it*
	// rests on the later blind-write records that made it unexposed —
	// after this install, those records are the object's only recovery
	// source, so they must be durable too.  (This is the paper's
	// "subsequent values for the objects in Notx(n) ... can be recovered
	// from the log": they can only be recovered from the *stable* log.)
	// By the invariant above, every installed operation writes a flushed
	// object (whose vSI is at least the operation's LSN) or a Notx object
	// (whose last pending writer is), so the largest of those bounds every
	// installed LSN.  On a standby the log is already durable that far: it
	// forced through the install record before mirroring it, and restart
	// replays only durable records.
	for _, x := range notx {
		if e, ok := m.lookup(x); ok && len(e.pending) > 0 {
			through = max(through, e.pending[len(e.pending)-1])
		}
	}
	if err := m.log.ForceThrough(through); err != nil {
		return nil, err
	}
	if len(entries) > 0 {
		mode := stable.ModeSingle
		if len(entries) > 1 {
			mode = stable.ModeShadow
			if m.cfg.Strategy == StrategyFlushTxn {
				mode = stable.ModeFlushTxn
			}
		}
		// Re-running the batch after a transient device error is safe in
		// every mode: a failed attempt left either the old state
		// (single/shadow, pre-commit flush-txn) or a committed pending
		// repair that the retry's phase 1 simply re-logs; unsafe torn
		// prefixes are overwritten by the identical values.
		err := wal.RetryTransient(func() error { return m.store.WriteBatch(entries, mode) }, func(backoff time.Duration) {
			m.obs.retries.Inc()
			m.obs.retryBackoffNs.ObserveDuration(backoff)
		})
		if err != nil {
			return nil, err
		}
	}

	// The installed operations leave the write graph, most-minimal node
	// first (one node on the primary; a record's operations can span
	// several on a standby whose bootstrap skipped some of them).
	installed := make(map[op.SI]bool)
	views := make([]*writegraph.NodeView, 0, len(nodes))
	for len(nodes) > 0 {
		var blocked []graph.NodeID
		for _, id := range nodes {
			if !m.wg.IsMinimal(id) {
				blocked = append(blocked, id)
				continue
			}
			view, err := m.wg.Remove(id)
			if err != nil {
				return nil, err
			}
			views = append(views, view)
			for _, o := range view.Ops {
				installed[o.LSN] = true
			}
			if m.cfg.InstallTrace != nil {
				m.cfg.InstallTrace(view)
			}
		}
		if len(blocked) == len(nodes) {
			return nil, fmt.Errorf("cache: %d installed nodes are not minimal", len(blocked))
		}
		nodes = blocked
	}

	m.installs.Add(1)
	m.objectsFlushed.Add(int64(len(flush)))
	m.installedNotFlushed.Add(int64(len(notx)))
	if len(flush) > 1 {
		m.multiObjectFlushes.Add(1)
	}
	m.obs.flushSetSize.Observe(int64(len(flush)))
	m.obs.notxSize.Observe(int64(len(notx)))
	if m.obs.wgNodes != nil {
		m.obs.wgNodes.Set(int64(m.wg.Len()))
		m.obs.wgOps.Set(int64(m.wg.OpCount()))
	}

	// Advance rSIs: "we advance the rSI of an object exactly when we
	// install operations that write it, whether or not the object is
	// flushed" (Section 5).
	for _, x := range flush {
		e, _ := m.lookup(x)
		e.pending = prunePending(e.pending, installed)
		if len(e.pending) != 0 {
			return nil, fmt.Errorf("cache: flushed object %q still has uninstalled writes %v", x, e.pending)
		}
		if !e.exists {
			// Terminated objects leave the object table entirely.
			m.remove(x)
		}
	}
	for _, x := range notx {
		e, ok := m.lookup(x)
		if !ok {
			continue
		}
		e.pending = prunePending(e.pending, installed)
		// The object stays dirty: its cached value comes from the later
		// blind write that made it unexposed, and that write is still
		// uninstalled.  Its rSI is that write's lSI.
	}
	if m.obs.installNs.Enabled() {
		m.obs.installNs.Since(start)
	}
	return views, nil
}

// identityWrite logs and applies W_IP(x, val(x)) — Section 4's CM-initiated
// write.  The value does not change; the write is logged physically.  For an
// object whose lifetime has already been terminated (it sits in the flush
// set only to propagate its deletion), the CM issues a re-delete instead:
// a delete is equally a blind write, peels the object out of the flush set
// the same way, and costs a few bytes rather than a value.
func (m *Manager) identityWrite(x op.ObjectID) error {
	e, ok := m.lookup(x)
	if !ok {
		return fmt.Errorf("cache: identity write of missing object %q", x)
	}
	var o *op.Operation
	if e.exists {
		o = op.NewIdentityWrite(x, e.val)
	} else {
		o = op.NewDelete(x)
	}
	if err := m.Execute(o); err != nil {
		return err
	}
	m.identityWrites.Add(1)
	return nil
}

// PurgeAll installs nodes until the write graph is empty (a full cache
// purge: every logged operation becomes installed).
func (m *Manager) PurgeAll() error {
	for {
		_, err := m.InstallMinimal()
		if errors.Is(err, ErrNothingToInstall) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// EvictClean drops the clean object x from the cache; dirty objects cannot
// be evicted ("we continue to require that an object be clean before it can
// be dropped from the cache", Section 4).
func (m *Manager) EvictClean(x op.ObjectID) error {
	e, ok := m.lookup(x)
	if !ok {
		return nil
	}
	if e.dirty() {
		return fmt.Errorf("cache: cannot evict dirty object %q (rSI %d)", x, e.rsi())
	}
	m.remove(x)
	m.evictions.Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Checkpoints and truncation.
// ---------------------------------------------------------------------------

// DirtyTable returns the current dirty object table as checkpoint entries,
// sorted by id.
func (m *Manager) DirtyTable() []wal.DirtyEntry {
	var out []wal.DirtyEntry
	m.forEach(func(x op.ObjectID, e *entry) {
		if e.dirty() {
			out = append(out, wal.DirtyEntry{ID: x, RSI: e.rsi()})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Checkpoint writes a checkpoint record carrying the dirty object table and
// forces the log.  It returns the checkpoint's LSN.
func (m *Manager) Checkpoint() (op.SI, error) {
	rec := wal.NewCheckpointRecord(m.DirtyTable())
	lsn, err := m.log.Append(rec)
	if err != nil {
		return 0, err
	}
	if err := m.log.Force(); err != nil {
		return 0, err
	}
	m.checkpoints.Add(1)
	return lsn, nil
}

// TruncationPoint returns the LSN before which the log may be truncated:
// the minimum rSI over dirty objects, bounded by the given checkpoint LSN.
// Every uninstalled operation has an LSN >= this point.
func (m *Manager) TruncationPoint(checkpointLSN op.SI) op.SI {
	min := checkpointLSN
	m.forEach(func(_ op.ObjectID, e *entry) {
		if e.dirty() && e.rsi() < min {
			min = e.rsi()
		}
	})
	return min
}

// Crash discards all volatile cache-manager state, simulating a crash.
func (m *Manager) Crash() {
	m.tableMu.Lock()
	m.table = make(map[op.ObjectID]*entry)
	m.tableMu.Unlock()
	m.wg = writegraph.New(m.cfg.Policy)
	m.obs.wgNodes.Set(0)
	m.obs.wgOps.Set(0)
}

func prunePending(pending []op.SI, installed map[op.SI]bool) []op.SI {
	out := pending[:0]
	for _, l := range pending {
		if !installed[l] {
			out = append(out, l)
		}
	}
	return out
}
