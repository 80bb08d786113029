// The chain scheduler: the one driver of the redo pass.  The redo suffix —
// the operations logged from the redo start on, as analysis decoded them — is
// partitioned into conflict-disjoint dependency chains (parallel.go); a
// per-chain state table (pending / in-flight / done) lets any goroutine claim
// a chain and replay it through the redo step (step.go).  Recover and Redo
// start the scheduler and Wait: ordinary restart is instant restart with no
// demand (Sauer & Härder, PAPERS.md).  StartOnDemand returns once analysis is
// done: a caller about to serve a request drains exactly the chains owning
// the objects the request touches (Require*), and background workers drain
// the remainder at lower priority.  Because every operation touching a
// written object lives in the same chain as all of that object's writers,
// replaying a chain to completion makes its objects' recovered values final —
// so serving an object after its chain is done observes exactly the state a
// finished redo would have produced, and the fully drained state is
// byte-identical regardless of the order demand, background, and Wait replays
// interleave.
//
// Gating rules (what a request must wait for):
//
//   - reading object x: the chain that writes x (if any).  Chains that only
//     read x cannot change it.
//   - writing object x: every chain that touches x.  A pending chain reading
//     x must observe x's pre-crash value, exactly as it would have during a
//     full redo that finishes before new writes are admitted.
//   - enumerating a key range (catalog scans): every chain writing an object
//     in the range, so creations and deletions in the redo suffix are
//     visible before the scan runs.
package recovery

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logicallog/internal/cache"
	"logicallog/internal/obs"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// ChainState is one dependency chain's position in the on-demand lifecycle.
type ChainState uint8

const (
	// ChainPending: not yet claimed by anyone.
	ChainPending ChainState = iota
	// ChainInFlight: claimed and replaying (by a demand caller or a
	// background worker).
	ChainInFlight
	// ChainDone: fully replayed; its objects' recovered values are final.
	ChainDone
)

// ErrAborted is returned by Require*/Wait after Abort (the engine crashed or
// restarted full recovery mid-drain).
var ErrAborted = errors.New("recovery: on-demand redo aborted")

// OnDemand is the instant-recovery scheduler returned by StartOnDemand.
// Require* methods are safe for concurrent use; each blocks only until the
// chains the request needs are done, replaying pending ones on the calling
// goroutine (demand has priority — it never queues behind background work).
type OnDemand struct {
	step   *Step
	tracer *obs.Tracer

	mu            sync.Mutex
	res           *Result
	chains        [][]*op.Operation
	state         []ChainState
	chainDone     []chan struct{}
	writer        map[op.ObjectID]int   // object -> the chain writing it
	touch         map[op.ObjectID][]int // object -> every chain touching it
	cursor        int                   // background claim scan position
	remaining     int
	failure       error
	drained       chan struct{}
	drainedClosed bool
	aborted       bool
	idleLanes     []*obs.Lane // span lanes no goroutine is replaying on
	lanes         int         // span lanes allocated so far

	stop     atomic.Bool // tells runChain to bail between operations
	doneFlag atomic.Bool // fast path: drain complete and clean

	bg sync.WaitGroup

	mDemandChains *obs.Counter
	mBgChains     *obs.Counter
	mRequires     *obs.Counter
	mWaits        *obs.Counter
	mWaitNs       *obs.Histogram
	gPending      *obs.Gauge
	gDone         *obs.Gauge
}

// StartOnDemand begins instant recovery over the durable log and stable
// store: restart, flush-txn repair, and analysis run now (they are cheap and
// proportional to the log suffix, not the redo work); the redo suffix is
// partitioned into dependency chains; opts.RedoWorkers background workers
// start draining them; and the scheduler returns so the caller can serve
// requests immediately, gating each on Require*.  Wait drains to completion
// and returns the full recovery Result, counter-identical to Recover's.
func StartOnDemand(log *wal.Log, store *stable.Store, opts Options) (*OnDemand, error) {
	res := &Result{}
	lane := opts.Tracer.Lane("recovery")
	dot, ops, err := recoverPrologue(log, store, opts, res, lane)
	if err != nil {
		return nil, err
	}
	return startRedo(opts, res, dot, ops, lane, resolveWorkers(opts.RedoWorkers)), nil
}

// startRedo partitions the redo suffix ops (the operations logged from
// res.RedoStart, in LSN order) and starts the scheduler replaying them
// against res.Manager with `background` goroutines of its own.  Redo
// counters accumulate in res.
func startRedo(opts Options, res *Result, dot dirtyTable, ops []*op.Operation, lane *obs.Lane, background int) *OnDemand {
	res.ScannedOps = len(ops)
	sp := lane.Begin("redo-partition")
	chains := partitionChains(ops)
	if background > len(chains) {
		background = len(chains)
	}
	sp.Arg("chains", len(chains)).Arg("background", background).End()

	reg := opts.Cache.Obs
	od := &OnDemand{
		step:      NewStep(opts, "recovery", res.Manager, dot),
		tracer:    opts.Tracer,
		res:       res,
		chains:    chains,
		state:     make([]ChainState, len(chains)),
		chainDone: make([]chan struct{}, len(chains)),
		writer:    make(map[op.ObjectID]int),
		touch:     make(map[op.ObjectID][]int),
		remaining: len(chains),
		drained:   make(chan struct{}),

		mDemandChains: reg.Counter("recovery.ondemand.demand_chains"),
		mBgChains:     reg.Counter("recovery.ondemand.background_chains"),
		mRequires:     reg.Counter("recovery.ondemand.requires"),
		mWaits:        reg.Counter("recovery.ondemand.demand_waits"),
		mWaitNs:       reg.Histogram("recovery.ondemand.demand_wait_ns"),
		gPending:      reg.Gauge("recovery.ondemand.chains_pending"),
		gDone:         reg.Gauge("recovery.ondemand.chains_done"),
	}
	for ci, chain := range chains {
		od.chainDone[ci] = make(chan struct{})
		for _, o := range chain {
			for _, x := range o.WriteSet {
				od.writer[x] = ci
				od.addTouch(x, ci)
			}
			for _, x := range o.ReadSet {
				od.addTouch(x, ci)
			}
		}
	}
	if reg != nil {
		reg.Gauge("recovery.redo.chains").Set(int64(len(chains)))
		reg.Gauge("recovery.redo.workers").Set(int64(resolveWorkers(opts.RedoWorkers)))
		h := reg.Histogram("recovery.redo.chain_ops")
		for _, chain := range chains {
			h.Observe(int64(len(chain)))
		}
	}
	od.gPending.Set(int64(len(chains)))
	od.gDone.Set(0)

	if len(chains) == 0 {
		od.mu.Lock()
		od.signalDrained()
		od.mu.Unlock()
	}
	for w := 0; w < background; w++ {
		od.bg.Add(1)
		go func() {
			defer od.bg.Done()
			od.drain()
		}()
	}
	return od
}

// addTouch appends ci to touch[x] unless it is already the last entry (one
// chain touches an object through many operations; dedupe cheaply — a chain's
// operations are indexed consecutively often enough that full dedupe at
// Require time stays cheap).
func (od *OnDemand) addTouch(x op.ObjectID, ci int) {
	if cis := od.touch[x]; len(cis) > 0 && cis[len(cis)-1] == ci {
		return
	}
	od.touch[x] = append(od.touch[x], ci)
}

// Manager returns the cache manager holding the recovering volatile state;
// the engine resumes normal operation on it (gated by Require*).
func (od *OnDemand) Manager() *cache.Manager { return od.res.Manager }

// Chains returns the number of dependency chains in the redo suffix.
func (od *OnDemand) Chains() int { return len(od.chains) }

// ChainCounts returns the chain-state table's current tallies — the
// observable drain progress.
func (od *OnDemand) ChainCounts() (pending, inFlight, done int) {
	od.mu.Lock()
	defer od.mu.Unlock()
	for _, st := range od.state {
		switch st {
		case ChainPending:
			pending++
		case ChainInFlight:
			inFlight++
		default:
			done++
		}
	}
	return
}

// Done reports whether the drain completed cleanly: every chain replayed, no
// failure.  Once true, Require* calls are free and the caller may stop
// gating entirely.
func (od *OnDemand) Done() bool { return od.doneFlag.Load() }

// RequireRead blocks until every chain writing one of the given objects has
// been replayed, so reading them observes full-redo state.
func (od *OnDemand) RequireRead(ids ...op.ObjectID) error {
	if od.doneFlag.Load() {
		return nil
	}
	od.mRequires.Inc()
	for _, x := range ids {
		od.mu.Lock()
		ci, ok := od.writer[x]
		od.mu.Unlock()
		if !ok {
			continue
		}
		if err := od.requireChain(ci); err != nil {
			return err
		}
	}
	return nil
}

// RequireOp blocks until o can execute with full-redo-equivalent semantics:
// the chains writing o's read set are done (o observes recovered values) and
// every chain touching o's write set is done (no pending replay may still
// read the pre-crash value o is about to overwrite).
func (od *OnDemand) RequireOp(o *op.Operation) error {
	if od.doneFlag.Load() {
		return nil
	}
	od.mRequires.Inc()
	od.mu.Lock()
	var need []int
	for _, x := range o.ReadSet {
		if ci, ok := od.writer[x]; ok {
			need = append(need, ci)
		}
	}
	for _, x := range o.WriteSet {
		need = append(need, od.touch[x]...)
	}
	od.mu.Unlock()
	return od.requireChains(need)
}

// RequireRange blocks until every chain writing an object id in [lo, hi)
// has been replayed (hi == "" means unbounded), so an enumeration of the
// range sees every creation and deletion the redo suffix holds.
func (od *OnDemand) RequireRange(lo, hi op.ObjectID) error {
	if od.doneFlag.Load() {
		return nil
	}
	od.mRequires.Inc()
	od.mu.Lock()
	var need []int
	//lint:ignore replaydeterminism membership filter is order-independent; requireChains sorts and dedups
	for x, ci := range od.writer {
		if x >= lo && (hi == "" || x < hi) {
			need = append(need, ci)
		}
	}
	od.mu.Unlock()
	return od.requireChains(need)
}

// requireChains drains the given chains (duplicates fine), ascending so two
// concurrent requesters claim overlapping chain sets in the same order.
func (od *OnDemand) requireChains(need []int) error {
	if len(need) == 0 {
		return nil
	}
	sort.Ints(need)
	prev := -1
	for _, ci := range need {
		if ci == prev {
			continue
		}
		prev = ci
		if err := od.requireChain(ci); err != nil {
			return err
		}
	}
	return nil
}

// requireChain makes chain ci done: replaying it on the calling goroutine if
// pending (demand priority), waiting for the in-flight replayer otherwise.
func (od *OnDemand) requireChain(ci int) error {
	od.mu.Lock()
	switch od.state[ci] {
	case ChainDone:
		err := od.failure // a failed or aborted drain marks chains done unreplayed
		od.mu.Unlock()
		return err
	case ChainInFlight:
		ch := od.chainDone[ci]
		od.mu.Unlock()
		od.mWaits.Inc()
		var start time.Time
		if od.mWaitNs.Enabled() {
			//lint:ignore replaydeterminism metrics-only wall clock; the wait duration never feeds a replay decision
			start = time.Now()
		}
		<-ch
		od.mWaitNs.Since(start)
	default:
		od.state[ci] = ChainInFlight
		od.mu.Unlock()
		lane := od.borrowLane()
		od.runChain(ci, lane, true)
		od.returnLane(lane)
	}
	od.mu.Lock()
	err := od.failure
	od.mu.Unlock()
	return err
}

// drain claims pending chains in partition order and replays them on the
// calling goroutine until none remain: the background workers' and Wait's
// loop.  Demand callers never wait for it to reach their chain — they claim
// it directly; the only demand wait is for a chain already mid-replay.
func (od *OnDemand) drain() {
	lane := od.borrowLane()
	defer od.returnLane(lane)
	for {
		ci := od.claimNext()
		if ci < 0 {
			return
		}
		od.runChain(ci, lane, false)
	}
}

// borrowLane hands the calling goroutine a span lane no other goroutine is
// using (an obs.Lane is single-owner), allocating "redo-worker-NN" lanes as
// concurrent replayers appear.  Nil when tracing is off.
func (od *OnDemand) borrowLane() *obs.Lane {
	if od.tracer == nil {
		return nil
	}
	od.mu.Lock()
	defer od.mu.Unlock()
	if n := len(od.idleLanes); n > 0 {
		lane := od.idleLanes[n-1]
		od.idleLanes = od.idleLanes[:n-1]
		return lane
	}
	od.lanes++
	return od.tracer.Lane(fmt.Sprintf("redo-worker-%02d", od.lanes-1))
}

// returnLane makes a borrowed lane available to the next replayer.
func (od *OnDemand) returnLane(lane *obs.Lane) {
	if lane == nil {
		return
	}
	od.mu.Lock()
	od.idleLanes = append(od.idleLanes, lane)
	od.mu.Unlock()
}

// claimNext claims the next pending chain for a background worker, or -1
// when none remain (all claimed/done, a failure, or an abort).
func (od *OnDemand) claimNext() int {
	od.mu.Lock()
	defer od.mu.Unlock()
	if od.aborted || od.failure != nil {
		return -1
	}
	for od.cursor < len(od.state) && od.state[od.cursor] != ChainPending {
		od.cursor++
	}
	if od.cursor >= len(od.state) {
		return -1
	}
	ci := od.cursor
	od.state[ci] = ChainInFlight
	return ci
}

// runChain replays one claimed chain serially in log order and retires it in
// the state table.  stop is checked between operations so one chain's
// failure (or an Abort) ends the others promptly.
func (od *OnDemand) runChain(ci int, lane *obs.Lane, demand bool) {
	chain := od.chains[ci]
	var c Result
	var err error
	sp := lane.Begin("chain")
	for _, o := range chain {
		if od.stop.Load() {
			break
		}
		var out Outcome
		if out, err = od.step.Apply(o); err != nil {
			break
		}
		c.Count(out)
	}
	sp.Arg("ops", len(chain)).Arg("first_lsn", int64(chain[0].LSN)).
		Arg("redone", c.Redone).Arg("voided", c.Voided).Arg("demand", demand).End()
	if demand {
		od.mDemandChains.Inc()
	} else {
		od.mBgChains.Inc()
	}
	od.mu.Lock()
	od.res.Redone += c.Redone
	od.res.SkippedInstalled += c.SkippedInstalled
	od.res.SkippedUnexposed += c.SkippedUnexposed
	od.res.Voided += c.Voided
	od.state[ci] = ChainDone
	close(od.chainDone[ci])
	od.remaining--
	if err != nil && od.failure == nil {
		od.failure = err
		od.stop.Store(true)
	}
	od.gPending.Set(int64(od.remaining))
	od.gDone.Set(int64(len(od.chains) - od.remaining))
	od.signalDrained()
	od.mu.Unlock()
}

// signalDrained (mu held) closes the drain barrier when the table empties or
// the drain dies, and flips the clean-completion fast path.
func (od *OnDemand) signalDrained() {
	if od.drainedClosed {
		return
	}
	if od.remaining == 0 || od.failure != nil {
		close(od.drained)
		od.drainedClosed = true
		if od.remaining == 0 && od.failure == nil {
			od.doneFlag.Store(true)
		}
	}
}

// Wait drains the table to completion — claiming pending chains on the
// calling goroutine alongside the background workers — and returns the final
// recovery Result.  Every counter matches what Recover would have reported:
// per-operation decisions depend only on intra-chain state, so the totals
// are independent of how demand, background, and Wait interleaved.
func (od *OnDemand) Wait() (*Result, error) {
	od.drain()
	<-od.drained
	od.bg.Wait()
	od.mu.Lock()
	defer od.mu.Unlock()
	return od.res, od.failure
}

// Abort stops the drain: in-flight replays bail at the next operation
// boundary, background workers exit, and every subsequent Require*/Wait
// returns ErrAborted.  Used when the recovering engine crashes (the volatile
// state is being discarded, so finishing the drain is wasted work) or when
// another recovery supersedes this one.  Blocks until the workers
// have exited, so the caller may discard the cache manager immediately after.
func (od *OnDemand) Abort() {
	od.mu.Lock()
	od.aborted = true
	if od.failure == nil {
		od.failure = ErrAborted
	}
	od.doneFlag.Store(false)
	od.signalDrained()
	od.mu.Unlock()
	od.stop.Store(true)
	od.bg.Wait()
}
