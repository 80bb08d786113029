// Package recovery implements crash recovery: the ARIES-style analysis pass
// that reconstructs the dirty object table (with generalized recovery SIs)
// from checkpoint, flush, and installation records, and the redo pass of
// Figure 2 driven by one of the paper's REDO tests.
//
// Three REDO tests are provided, in increasing sophistication, matching the
// progression of Section 5:
//
//   - TestRedoAll replays every logged operation (safe only because redo is
//     wrapped in a trial execution that voids inapplicable replays);
//   - TestVSI is the traditional state-identifier test: redo unless some
//     object of writeset(Op) already carries vSI >= lSI (manifest
//     installation; atomic installation makes one object's witness enough);
//   - TestRSI is the paper's generalized test: redo iff some object of
//     writeset(Op) is both uninstalled (lSI >= rSI from the dirty object
//     table) and exposed (lSI > vSI) — operations whose results are wholly
//     unexposed (deleted files, dead application states, blind-overwritten
//     objects) are bypassed even though their values were never flushed.
package recovery

import (
	"fmt"
	"sort"

	"logicallog/internal/cache"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// RedoTest selects the REDO predicate.
type RedoTest uint8

const (
	// TestRedoAll redoes every scanned operation (with trial-execution
	// voiding).
	TestRedoAll RedoTest = iota
	// TestVSI is the traditional "is installed" vSI test.
	TestVSI
	// TestRSI combines "is installed" with "is exposed" using generalized
	// recovery SIs (the paper's contribution).
	TestRSI
)

func (t RedoTest) String() string {
	switch t {
	case TestRedoAll:
		return "redo-all"
	case TestVSI:
		return "vSI"
	case TestRSI:
		return "rSI"
	}
	return fmt.Sprintf("RedoTest(%d)", uint8(t))
}

// Options parameterizes recovery.
type Options struct {
	// Test selects the REDO predicate (default TestRSI).
	Test RedoTest
	// Cache configures the cache manager recovery rebuilds (policy,
	// strategy, registry).  Registry is required.  Its Obs registry, when
	// non-nil, also receives recovery's metrics: the dependency-chain count
	// and per-chain operation-count distribution of the redo partitioner,
	// the scheduler's recovery.ondemand.* family, and the recovery.decide.*
	// decision family.
	Cache cache.Config
	// Flight, when non-nil, records every redo decision (with its witness
	// or dirty-table reason) in the flight recorder for post-hoc forensics
	// (llinspect -explain), and the pipeline's phases: restart, flush-txn
	// repair, analysis, redo scan and chain partitioning on actor
	// "recovery", and one chain phase per replayed dependency chain on its
	// replayer's actor: "redo-worker-00" for Recover's and Redo's caller or
	// StartOnDemand's background replayer, "redo-wait" for a caller of
	// OnDemand.Wait, "demand" for a Require* caller.
	// Observational only: timing never feeds replay ordering, so recorded
	// runs recover bit-identical state.
	Flight *flight.Recorder
}

// Result reports what recovery did.
type Result struct {
	// Manager is the rebuilt cache manager holding the recovered volatile
	// state (dirty objects and reconstructed write graph); normal
	// operation continues on it.
	Manager *cache.Manager
	// CheckpointLSN is the checkpoint analysis started from (0 if none).
	CheckpointLSN op.SI
	// RedoStart is the LSN the redo scan started at.
	RedoStart op.SI
	// AnalyzedRecords counts records examined by the analysis pass.
	AnalyzedRecords int
	// ScannedOps counts operation records examined by the redo pass.
	ScannedOps int
	// Redone counts operations re-executed.
	Redone int
	// SkippedInstalled counts operations bypassed as manifestly installed
	// (vSI witness).
	SkippedInstalled int
	// SkippedUnexposed counts operations bypassed because their writesets
	// were wholly unexposed or clean per the dirty object table (rSI
	// reasoning; only under TestRSI).
	SkippedUnexposed int
	// Voided counts trial executions voided (Section 5 cases b/c).
	Voided int
	// PendingFlushTxnRepaired reports whether a committed flush
	// transaction was completed before redo.
	PendingFlushTxnRepaired bool
}

// dirtyTable is the analysis pass's reconstruction of the dirty object
// table: object -> rSI of its earliest possibly-uninstalled update.
type dirtyTable map[op.ObjectID]op.SI

// Recover performs full crash recovery over the durable log and stable
// store and returns the rebuilt volatile state: the prologue, then the chain
// scheduler drained on the caller's goroutine beside the pass's write-graph
// stage, which has exited by the time Recover returns.  It
// is idempotent: crashing during recovery and recovering again yields the
// same stable state, because recovery itself follows the same WAL and
// write-graph disciplines as normal operation and never resets installed
// state (history is repeated, not undone).
func Recover(log *wal.Log, store *stable.Store, opts Options) (*Result, error) {
	res := &Result{}
	dot, ops, err := recoverPrologue(log, store, opts, res)
	if err != nil {
		return nil, err
	}
	return redo(opts, res, dot, ops)
}

// actorRecovery is the flight actor of the phases before redo, and of the
// redo step's decisions.
const actorRecovery = "recovery"

// Redo runs the redo pass alone, for a caller with its own prologue
// (backup.MediaRecover): it replays the operations logged at or after from
// against mgr, deciding each with opts.Test and the dirty object table dot.
// Like the prologue, it takes the operations from the log's Restart walk.
func Redo(log *wal.Log, mgr *cache.Manager, dot map[op.ObjectID]op.SI, from op.SI, opts Options) (*Result, error) {
	res := &Result{Manager: mgr, RedoStart: from}
	t := opts.Flight.Clock()
	recs, err := log.Restart()
	if err != nil {
		return nil, err
	}
	ops := redoSuffix(recs, from)
	first, last := bounds(ops)
	opts.Flight.Phase(actorRecovery, flight.DecRedoScan, t, first, last)
	return redo(opts, res, dot, ops)
}

// bounds returns the LSNs of the first and last of ops (NilSI for none).
func bounds(ops []*op.Operation) (first, last op.SI) {
	if len(ops) == 0 {
		return op.NilSI, op.NilSI
	}
	return ops[0].LSN, ops[len(ops)-1].LSN
}

// redoSuffix returns the operations among recs, the records of Restart's
// walk in LSN order, logged at or after from: the redo pass's input, taken
// without reading the log again.
func redoSuffix(recs []*wal.Record, from op.SI) []*op.Operation {
	var ops []*op.Operation
	for _, rec := range recs[sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= from }):] {
		if rec.Type == wal.RecOperation {
			ops = append(ops, rec.Op)
		}
	}
	return ops
}

// redo drains the redo suffix ops on the calling goroutine, actor
// "redo-worker-00", and waits for the write-graph stage, filling res's redo
// counters.
func redo(opts Options, res *Result, dot dirtyTable, ops []*op.Operation) (*Result, error) {
	od := newOnDemand(opts, res, dot, ops)
	od.drain(actorReplayer)
	return od.Wait()
}

// recoverPrologue runs the recovery phases that precede redo: the log
// restart (torn-tail trim, LSN horizon re-derivation), the flush-transaction
// repair, the cache-manager rebuild, the analysis pass, and the redo-start
// computation.  Results land in res (Manager, CheckpointLSN, AnalyzedRecords,
// RedoStart, PendingFlushTxnRepaired); the returned dirty table and redo
// suffix (the operations logged from RedoStart on) drive the redo pass,
// whether Recover waits for it or StartOnDemand returns first.
func recoverPrologue(log *wal.Log, store *stable.Store, opts Options, res *Result) (dirtyTable, []*op.Operation, error) {
	fl := opts.Flight
	// Restart the log over its device first, as a process restart would:
	// trim the untrustworthy debris of a torn, bit-flipped, or reordered
	// final append, and re-derive the LSN horizon from the durable log so
	// post-recovery appends keep it gap-free (see wal.Log.Restart).  Its
	// walk returns the durable records, decoded, for analysis to fold and
	// the redo pass to take its suffix from.
	t := fl.Clock()
	recs, err := log.Restart()
	if err != nil {
		return nil, nil, err
	}
	fl.Phase(actorRecovery, flight.DecRestart, t, log.FirstLSN(), log.StableLSN())

	// Step 0: finish any committed-but-interrupted flush transaction, as
	// restart processing replays the flush-transaction log.
	if store.HasPending() {
		t = fl.Clock()
		store.RecoverPending()
		res.PendingFlushTxnRepaired = true
		fl.Phase(actorRecovery, flight.DecFlushTxnRepair, t, op.NilSI, op.NilSI)
	}

	mgr, err := cache.NewManager(opts.Cache, log, store)
	if err != nil {
		return nil, nil, err
	}
	res.Manager = mgr

	// Analysis pass.
	t = fl.Clock()
	dot := analyze(recs, res, opts.Test)
	fl.Phase(actorRecovery, flight.DecAnalysis, t, log.FirstLSN(), log.StableLSN())

	// Redo scan start point: the minimum rSI over the reconstructed dirty
	// object table.  With an empty table nothing needs redo, but scanning
	// from the end is still performed so counters stay meaningful.
	redoStart := log.NextLSN()
	//lint:ignore replaydeterminism commutative min-fold
	for _, rsi := range dot {
		if rsi < redoStart {
			redoStart = rsi
		}
	}
	res.RedoStart = redoStart

	t = fl.Clock()
	ops := redoSuffix(recs, redoStart)
	first, last := bounds(ops)
	fl.Phase(actorRecovery, flight.DecRedoScan, t, first, last)
	return dot, ops, nil
}

// analyze reconstructs the dirty object table by folding the durable
// log's records, in LSN order, through the Section 5 update rules:
// operation records dirty their written objects; flush records clean their
// object; installation records clean flushed objects and — only under the
// generalized TestRSI — advance rSIs of unflushed (unexposed) objects; a
// checkpoint record restates the whole table, so the result is the last
// checkpoint's table rolled forward, and CheckpointLSN and AnalyzedRecords
// count from that checkpoint.  A traditional vSI recovery has no notion of
// installed-without-flushing, so under TestVSI/TestRedoAll those objects
// stay dirty at their first-update rSI and the redo scan is correspondingly
// longer.
func analyze(recs []*wal.Record, res *Result, test RedoTest) dirtyTable {
	dot := make(dirtyTable)
	for _, rec := range recs {
		if rec.Type == wal.RecCheckpoint {
			res.CheckpointLSN = rec.LSN
			res.AnalyzedRecords = 0
		}
		res.AnalyzedRecords++
		UpdateDirtyTable(dot, rec, test)
	}
	return dot
}

// UpdateDirtyTable applies one log record's Section 5 analysis rule to the
// dirty object table, in place.  It is the incremental unit of the analysis
// pass, exported so a warm standby can maintain its table continuously as
// shipped records arrive instead of re-running analysis at promotion.
func UpdateDirtyTable(dot map[op.ObjectID]op.SI, rec *wal.Record, test RedoTest) {
	switch rec.Type {
	case wal.RecOperation:
		for _, x := range rec.Op.WriteSet {
			if _, dirty := dot[x]; !dirty {
				// First uninstalled update after the object was last
				// clean: its rSI.
				dot[x] = rec.LSN
			}
		}
	case wal.RecFlush:
		delete(dot, rec.Flush.Object)
	case wal.RecInstall:
		for _, f := range rec.Install.Flushed {
			if f.RSI == op.NilSI {
				delete(dot, f.ID)
			} else {
				dot[f.ID] = f.RSI
			}
		}
		if test == TestRSI {
			for _, u := range rec.Install.Unflushed {
				if u.RSI == op.NilSI {
					delete(dot, u.ID)
				} else {
					// The unexposed object's rSI advances to the lSI
					// of the blind write that follows it.
					dot[u.ID] = u.RSI
				}
			}
		}
	case wal.RecCheckpoint:
		// A later checkpoint restates the table.  Cleared in place so
		// callers holding the map see the restatement.
		clear(dot)
		for _, d := range rec.Checkpoint.Dirty {
			dot[d.ID] = d.RSI
		}
	}
}

// RedoExplanation is a REDO decision with its evidence: the witness that
// proved the operation installed, or the dirty-table entry that exposed
// it.  It is what the flight recorder persists and `llinspect -explain`
// renders.
type RedoExplanation struct {
	// Redo is the verdict: replay the operation.
	Redo bool
	// InstalledWitness reports a skip justified by manifest installation;
	// WitnessObject then names the written object whose current version
	// WitnessVSI is at or past the record's lSI.
	InstalledWitness bool
	WitnessObject    op.ObjectID
	WitnessVSI       op.SI
	// DirtyObject, on a redo under TestRSI, names the written object the
	// dirty table exposed (its rSI at or below the record's lSI); DirtyRSI
	// is that rSI.  Empty for TestRedoAll/TestVSI redos, which need no
	// dirty-table evidence.
	DirtyObject op.ObjectID
	DirtyRSI    op.SI
}

// DecideRedoExplain evaluates the REDO test for o against the given state —
// the recovering engine's during crash recovery, or a warm standby's as
// shipped records arrive (replication is recovery that never stops) — and
// returns the verdict with its evidence.  Step.Apply is its one replay-time
// caller.
func DecideRedoExplain(test RedoTest, mgr *cache.Manager, dot map[op.ObjectID]op.SI, o *op.Operation) RedoExplanation {
	if test == TestRedoAll {
		return RedoExplanation{Redo: true}
	}
	// Manifest installation: atomic installation of writeset(Op) means one
	// object with vSI >= lSI proves Op installed.  This also protects
	// exposed objects from being reset by a spurious redo.
	for _, x := range o.WriteSet {
		if vsi := mgr.CurrentVSI(x); vsi >= o.LSN {
			return RedoExplanation{InstalledWitness: true, WitnessObject: x, WitnessVSI: vsi}
		}
	}
	if test == TestVSI {
		return RedoExplanation{Redo: true}
	}
	// Generalized test: redo iff some written object is both possibly
	// uninstalled (lSI >= rSI) and exposed (lSI > vSI; already established
	// above).  Objects absent from the dirty object table are clean —
	// every update of theirs is installed.
	for _, x := range o.WriteSet {
		rsi, dirty := dot[x]
		if dirty && o.LSN >= rsi {
			return RedoExplanation{Redo: true, DirtyObject: x, DirtyRSI: rsi}
		}
	}
	return RedoExplanation{}
}
