package recovery

import (
	"fmt"

	"logicallog/internal/cache"
	"logicallog/internal/obs"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
)

// Outcome is what the redo step did with one logged operation.
type Outcome uint8

const (
	Redone           Outcome = iota // REDO test said replay; trial execution applied
	Voided                          // REDO test said replay; trial execution voided it (Section 5 cases b/c)
	SkippedInstalled                // bypassed as manifestly installed (vSI witness)
	SkippedUnexposed                // bypassed as unexposed or clean per the dirty table (TestRSI only)
	numOutcomes
)

// outcomes maps each Outcome to its flight decision and its
// recovery.decide.* counter.
var outcomes = [numOutcomes]struct {
	dec    flight.Decision
	metric string
}{
	Redone:           {flight.DecRedo, "recovery.decide.redo"},
	Voided:           {flight.DecVoided, "recovery.decide.voided"},
	SkippedInstalled: {flight.DecSkipInstalled, "recovery.decide.skip_installed"},
	SkippedUnexposed: {flight.DecSkipUnexposed, "recovery.decide.skip_unexposed"},
}

// String returns the outcome's flight decision name: "redo", "voided",
// "skip-installed" or "skip-unexposed".
func (o Outcome) String() string { return outcomes[o].dec.String() }

// Count tallies one redo-step outcome into the Result counters.
func (r *Result) Count(out Outcome) {
	switch out {
	case Redone:
		r.Redone++
	case Voided:
		r.Voided++
	case SkippedInstalled:
		r.SkippedInstalled++
	case SkippedUnexposed:
		r.SkippedUnexposed++
	}
}

// Step is the redo step of Figure 2 — REDO test, trial execution, and the
// record of what was decided — shared by every replayer: the chain scheduler
// and the warm standby's continuous apply.  Built once per recovery, so the
// metric handles are resolved once.  Apply is safe for concurrent use on
// operations of different dependency chains.  The step does not build the
// write graph: each replayer using it (the chain scheduler, the standby)
// threads the operations it redoes into the graph itself.
type Step struct {
	test     RedoTest
	mgr      *cache.Manager
	dot      map[op.ObjectID]op.SI
	actor    string
	flight   *flight.Recorder
	counters [numOutcomes]*obs.Counter
}

// NewStep builds the redo step over mgr and the dirty object table dot (read
// at each Apply, so a standby may keep updating it between calls).  Of opts
// it uses Test, Cache.Obs and Flight; actor names the replayer in flight
// events ("recovery", "standby").
func NewStep(opts Options, actor string, mgr *cache.Manager, dot map[op.ObjectID]op.SI) *Step {
	s := &Step{test: opts.Test, mgr: mgr, dot: dot, actor: actor, flight: opts.Flight}
	for out := range s.counters {
		s.counters[out] = opts.Cache.Obs.Counter(outcomes[out].metric)
	}
	return s
}

// Apply runs one logged operation through the REDO test and, if it says so,
// the trial execution, and records the outcome in every sink: counter and
// flight event (with the witness or dirty-table entry as evidence).  A
// Redone operation's values are in the cache, but it is not yet in the write
// graph.  o is replayed as decoded, without a copy: nothing on the replay
// path writes to an operation, and transforms treat params as read-only, so
// a record aliasing the log scanner's immutable snapshot stays intact.
func (s *Step) Apply(o *op.Operation) (Outcome, error) {
	ex := DecideRedoExplain(s.test, s.mgr, s.dot, o)
	var out Outcome
	obj, ref := ex.DirtyObject, ex.DirtyRSI
	switch {
	case ex.Redo:
		voided, err := s.mgr.TryApplyLogged(o)
		if err != nil {
			return 0, fmt.Errorf("recovery: redo of %s: %w", o, err)
		}
		if voided {
			out = Voided
		}
	case ex.InstalledWitness:
		out, obj, ref = SkippedInstalled, ex.WitnessObject, ex.WitnessVSI
	default:
		out = SkippedUnexposed
	}
	s.counters[out].Inc()
	s.flight.RedoDecision(s.actor, o.LSN, outcomes[out].dec, obj, ref)
	return out, nil
}
