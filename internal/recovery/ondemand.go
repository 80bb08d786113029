// The chain scheduler: the one driver of the redo pass.  The redo suffix —
// the operations logged from the redo start on, as analysis decoded them — is
// partitioned into conflict-disjoint dependency chains (parallel.go); a
// per-chain state table (pending / in-flight / done) lets any goroutine claim
// a chain and replay it through the redo step (step.go).  Recover and Redo
// drain every chain on the caller's goroutine: ordinary restart is instant
// restart with no demand (Sauer & Härder, PAPERS.md).  StartOnDemand returns
// once analysis is done: a caller about to serve a request drains exactly the
// chains owning the objects the request touches (Require*), and one
// background replayer drains the remainder opportunistically.  Because every
// operation touching a written object lives in the same chain as all of that
// object's writers, replaying a chain to completion makes its objects'
// recovered values final — so serving an object after its chain is done
// observes exactly the state a finished redo would have produced, and the
// fully drained state is byte-identical regardless of the order demand,
// background, and Wait replays interleave.
//
// Redo is two pipeline stages.  The replayers (demand callers, the
// background replayer, Wait, or Recover's caller) run the REDO test and the
// trial execution, and they alone change cached values.  One write-graph
// stage goroutine per pass (runGraph) threads each redone operation into the
// write graph (cache.Manager.AddToGraph).  Each replayer collects its redone
// operations in a buffer of its own and puts them into the scheduler's open
// batch, under mu, every graphBatch operations and when it retires a chain;
// full batches queue for the stage in put order.  Each chain's operations
// reach the graph in its log order, so the graph has the nodes, flush sets
// and edges a synchronous redo builds.
//
// Gating rules (what a request must wait for):
//
//   - reading object x: the chain that writes x (if any).  Chains that only
//     read x cannot change it.  Values only: a read never waits for the
//     write-graph stage.
//   - writing object x: every chain that touches x, and every operation of
//     those chains in the write graph, since the caller adds its own write of
//     x next and the graph takes each object's operations in log order.  A
//     pending chain reading x must observe x's pre-crash value, exactly as it
//     would have during a full redo that finishes before new writes are
//     admitted.
//   - enumerating a key range (catalog scans): every chain writing an object
//     in the range, so creations and deletions in the redo suffix are
//     visible before the scan runs.  Values only, as for a read.
//   - anything else (installs, checkpoints): the whole drain, write-graph
//     stage included (Wait, Done).
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
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// ChainState is one dependency chain's position in the on-demand lifecycle.
type ChainState uint8

const (
	// ChainPending: not yet claimed by anyone.
	ChainPending ChainState = iota
	// ChainInFlight: claimed and replaying (by a demand caller, the
	// background replayer, or Wait).
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
// At most one background goroutine replays beside them, and one write-graph
// stage goroutine takes their redone operations into the write graph.
type OnDemand struct {
	step   *Step
	flight *flight.Recorder

	mu            sync.Mutex
	res           *Result
	chains        [][]*op.Operation
	state         []ChainState
	chainDone     []chan struct{}
	graphMark     []uint64              // chain -> operations put to the graph stage when it finished
	writer        map[op.ObjectID]int   // object -> the chain writing it
	touch         map[op.ObjectID][]int // object -> every chain touching it
	cursor        int                   // background claim scan position
	remaining     int
	failure       error // the drain's failure, or ErrAborted: the stage stops too
	drained       chan struct{}
	drainedClosed bool
	aborted       bool

	// The write-graph stage's queue.  Redone operations are numbered in the
	// order they are put: once added reaches n, the first n are in the graph.
	open   []*op.Operation   // the batch being filled
	queue  [][]*op.Operation // full batches waiting for the stage, oldest first
	put    uint64            // operations put so far, the open batch's included
	added  uint64            // operations the stage has added to the graph (while failure is nil)
	staged sync.Cond         // on mu: a batch queued or added, the drain ended or failed

	stop     atomic.Bool // tells runChain and the stage to bail between operations
	doneFlag atomic.Bool // fast path: drain complete and clean, graph stage included

	bg sync.WaitGroup // the background replayer and the graph stage

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
// partitioned into dependency chains; one background replayer, actor
// "redo-worker-00", starts draining them beside the write-graph stage; and
// the scheduler returns so the caller can serve requests immediately,
// gating each on Require*.  Wait drains to completion and returns the full
// recovery Result, counter-identical to Recover's.
func StartOnDemand(log *wal.Log, store *stable.Store, opts Options) (*OnDemand, error) {
	res := &Result{}
	dot, ops, err := recoverPrologue(log, store, opts, res)
	if err != nil {
		return nil, err
	}
	od := newOnDemand(opts, res, dot, ops)
	od.bg.Add(1)
	go func() {
		defer od.bg.Done()
		od.drain(actorReplayer)
	}()
	return od, nil
}

// actorReplayer is the flight actor of the chains Recover's and Redo's caller,
// or StartOnDemand's background goroutine, replays.
const actorReplayer = "redo-worker-00"

// newOnDemand partitions the redo suffix ops (the operations logged from
// res.RedoStart, in LSN order) into the scheduler's chain table, replaying
// against res.Manager, and starts the pass's write-graph stage goroutine,
// its only one.  Redo counters accumulate in res.
func newOnDemand(opts Options, res *Result, dot dirtyTable, ops []*op.Operation) *OnDemand {
	res.ScannedOps = len(ops)
	t := opts.Flight.Clock()
	chains := partitionChains(ops)
	first, last := bounds(ops)
	opts.Flight.Phase(actorRecovery, flight.DecRedoPartition, t, first, last)

	reg := opts.Cache.Obs
	od := &OnDemand{
		step:      NewStep(opts, actorRecovery, res.Manager, dot),
		flight:    opts.Flight,
		res:       res,
		chains:    chains,
		state:     make([]ChainState, len(chains)),
		chainDone: make([]chan struct{}, len(chains)),
		graphMark: make([]uint64, len(chains)),
		writer:    make(map[op.ObjectID]int),
		touch:     make(map[op.ObjectID][]int),
		remaining: len(chains),
		drained:   make(chan struct{}),
		open:      make([]*op.Operation, 0, graphBatch),

		mDemandChains: reg.Counter("recovery.ondemand.demand_chains"),
		mBgChains:     reg.Counter("recovery.ondemand.background_chains"),
		mRequires:     reg.Counter("recovery.ondemand.requires"),
		mWaits:        reg.Counter("recovery.ondemand.demand_waits"),
		mWaitNs:       reg.Histogram("recovery.ondemand.demand_wait_ns"),
		gPending:      reg.Gauge("recovery.ondemand.chains_pending"),
		gDone:         reg.Gauge("recovery.ondemand.chains_done"),
	}
	od.staged.L = &od.mu
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
		h := reg.Histogram("recovery.redo.chain_ops")
		for _, chain := range chains {
			h.Observe(int64(len(chain)))
		}
	}
	od.gPending.Set(int64(len(chains)))
	od.gDone.Set(0)

	od.bg.Add(1)
	go func() {
		defer od.bg.Done()
		od.runGraph()
	}()
	if len(chains) == 0 {
		od.mu.Lock()
		od.signalDrained()
		od.mu.Unlock()
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

// Done reports whether the drain completed cleanly: every chain replayed and
// every redone operation in the write graph, no failure.  Once true,
// Require* calls are free and the caller may stop gating entirely.
func (od *OnDemand) Done() bool { return od.doneFlag.Load() }

// RequireRead blocks until every chain writing one of the given objects has
// been replayed, so reading them observes full-redo state.  It does not wait
// for the write-graph stage.
func (od *OnDemand) RequireRead(ids ...op.ObjectID) error {
	if od.doneFlag.Load() {
		return nil
	}
	od.mRequires.Inc()
	var redone []*op.Operation
	for _, x := range ids {
		od.mu.Lock()
		ci, ok := od.writer[x]
		od.mu.Unlock()
		if !ok {
			continue
		}
		if err := od.requireChain(ci, &redone); err != nil {
			return err
		}
	}
	return nil
}

// RequireOp blocks until o can execute with full-redo-equivalent semantics:
// the chains writing o's read set are done (o observes recovered values),
// every chain touching o's write set is done (no pending replay may still
// read the pre-crash value o is about to overwrite), and every operation of
// those chains is in the write graph, where o goes next.
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
	if err := od.requireChains(need); err != nil {
		return err
	}
	od.mu.Lock()
	defer od.mu.Unlock()
	var mark uint64
	for _, ci := range need {
		mark = max(mark, od.graphMark[ci])
	}
	// A partial batch would hold the wait up until more is put: queue it.
	if od.put-uint64(len(od.open)) < mark {
		od.handOver()
	}
	for od.added < mark && od.failure == nil {
		od.staged.Wait()
	}
	return od.failure
}

// RequireRange blocks until every chain writing an object id in [lo, hi)
// has been replayed (hi == "" means unbounded), so an enumeration of the
// range sees every creation and deletion the redo suffix holds.  It does not
// wait for the write-graph stage.
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
	var redone []*op.Operation
	for _, ci := range need {
		if ci == prev {
			continue
		}
		prev = ci
		if err := od.requireChain(ci, &redone); err != nil {
			return err
		}
	}
	return nil
}

// requireChain makes chain ci done: replaying it on the calling goroutine if
// pending (demand priority), with redone as the caller's buffer, waiting for
// the in-flight replayer otherwise.
func (od *OnDemand) requireChain(ci int, redone *[]*op.Operation) error {
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
		od.runChain(ci, "demand", true, redone)
	}
	od.mu.Lock()
	err := od.failure
	od.mu.Unlock()
	return err
}

// drain claims pending chains in partition order and replays them on the
// calling goroutine, recording them as actor's, until none remain: the loop
// of Recover's caller, the background replayer, and Wait.  Demand callers
// never wait for it to reach their chain — they claim it directly; the only
// demand wait is for a chain already mid-replay.
func (od *OnDemand) drain(actor string) {
	var redone []*op.Operation
	for {
		ci := od.claimNext()
		if ci < 0 {
			return
		}
		if redone == nil {
			redone = make([]*op.Operation, 0, graphBatch)
		}
		od.runChain(ci, actor, false, &redone)
	}
}

// claimNext claims the next pending chain for drain, or -1 when none remain
// (all claimed/done, a failure, or an abort).
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
// the state table, recording its chain phase as actor's.  Its redone
// operations collect in the replayer's buffer *redone, which is put to the
// graph stage every graphBatch operations and when the chain retires; the
// chain's mark is the put count after its last one.  stop is checked between
// operations so one chain's failure (or an Abort) ends the others promptly.
func (od *OnDemand) runChain(ci int, actor string, demand bool, redone *[]*op.Operation) {
	chain := od.chains[ci]
	var c Result
	var err error
	t := od.flight.Clock()
	for _, o := range chain {
		if od.stop.Load() {
			break
		}
		var out Outcome
		if out, err = od.step.Apply(o); err != nil {
			break
		}
		c.Count(out)
		if out == Redone {
			if *redone = append(*redone, o); len(*redone) == graphBatch {
				od.mu.Lock()
				od.putGraph(redone)
				od.mu.Unlock()
			}
		}
	}
	od.flight.Phase(actor, flight.DecChain, t, chain[0].LSN, chain[len(chain)-1].LSN)
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
	if c.Redone > 0 {
		od.putGraph(redone)
		od.graphMark[ci] = od.put
	}
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

// signalDrained (mu held) ends the drain when the table empties or the drain
// dies: it closes the drain barrier, queues the open batch, and wakes the
// graph stage, which then adds what is queued and exits (every chain
// replayed) or exits at once (a failure or an abort), and RequireOp's graph
// waits, which return on a failure.
func (od *OnDemand) signalDrained() {
	if od.remaining > 0 && od.failure == nil {
		return
	}
	if !od.drainedClosed {
		close(od.drained)
		od.drainedClosed = true
	}
	od.handOver()
	od.staged.Broadcast()
}

// graphBatch is how many redone operations the replayers hand the
// write-graph stage at once.
const graphBatch = 256

// putGraph (mu held) puts a replayer's redone operations into the open batch
// in order, queueing the batch once it is full, and empties the buffer.
func (od *OnDemand) putGraph(redone *[]*op.Operation) {
	ops := *redone
	if len(od.open)+len(ops) > graphBatch {
		od.handOver()
	}
	od.open = append(od.open, ops...)
	od.put += uint64(len(ops))
	if len(od.open) == graphBatch {
		od.handOver()
	}
	*redone = ops[:0]
}

// handOver (mu held) queues the open batch for the stage.
func (od *OnDemand) handOver() {
	if len(od.open) == 0 {
		return
	}
	od.queue = append(od.queue, od.open)
	od.open = make([]*op.Operation, 0, graphBatch)
	od.staged.Broadcast()
}

// runGraph is the write-graph stage goroutine: it adds the queued batches to
// the write graph in order until every chain is replayed and the queue is
// empty, then flips the clean-completion fast path.  It exits without adding
// the rest once the drain has failed or been aborted; an AddToGraph failure
// fails the drain.
func (od *OnDemand) runGraph() {
	od.mu.Lock()
	defer od.mu.Unlock()
	for {
		for len(od.queue) == 0 && od.remaining > 0 && od.failure == nil {
			od.staged.Wait()
		}
		if od.failure != nil {
			return
		}
		if len(od.queue) == 0 {
			od.doneFlag.Store(true)
			return
		}
		batch := od.queue[0]
		od.queue[0] = nil
		od.queue = od.queue[1:]
		od.mu.Unlock()
		err := od.addBatch(batch)
		od.mu.Lock()
		if err != nil && od.failure == nil {
			od.failure = err
			od.stop.Store(true)
			od.signalDrained()
		}
		od.added += uint64(len(batch))
		od.staged.Broadcast()
	}
}

// addBatch threads one batch into the write graph in order, stopping early
// if the drain has been stopped.
func (od *OnDemand) addBatch(batch []*op.Operation) error {
	for _, o := range batch {
		if od.stop.Load() {
			return nil
		}
		if err := od.res.Manager.AddToGraph(o); err != nil {
			return fmt.Errorf("recovery: redo of %s: %w", o, err)
		}
	}
	return nil
}

// Wait drains the table to completion — claiming pending chains on the
// calling goroutine alongside the background replayer — waits for the
// write-graph stage to add every redone operation, and returns the final
// recovery Result.  Every counter matches what Recover would have reported:
// per-operation decisions depend only on intra-chain state, so the totals
// are independent of how demand, background, and Wait interleaved.
func (od *OnDemand) Wait() (*Result, error) {
	od.drain("redo-wait")
	<-od.drained
	od.bg.Wait()
	od.mu.Lock()
	defer od.mu.Unlock()
	return od.res, od.failure
}

// Abort stops the drain: in-flight replays bail at the next operation
// boundary, the background replayer exits, and every subsequent Require*/Wait
// returns ErrAborted.  Used when the recovering engine crashes (the volatile
// state is being discarded, so finishing the drain is wasted work) or when
// another recovery supersedes this one.  Blocks until the replayer and the
// graph stage have exited, so the caller may discard the cache manager
// immediately after.
func (od *OnDemand) Abort() {
	od.mu.Lock()
	od.aborted = true
	if od.failure == nil {
		od.failure = ErrAborted
	}
	od.doneFlag.Store(false)
	od.stop.Store(true)
	od.signalDrained()
	od.mu.Unlock()
	od.bg.Wait()
}
