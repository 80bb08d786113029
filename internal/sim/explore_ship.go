// Ship-schedule exploration: the replication analogue of the crash-schedule
// explorer.  One deterministic scripted workload runs on a primary while a
// sender continuously ships its log to a warm standby; the counting run
// tallies the shipped-batch boundaries, then every boundary is re-run with a
// failure injected exactly there — the primary dies and the standby is
// promoted, the standby crashes and restarts mid-stream, or the batch is
// dropped, duplicated, reordered, or transiently refused on the wire.  After
// every schedule the promoted standby must match the single-node re-execution
// oracle for the same log prefix, and (where anchored) its stable state must
// pass the paper's Theorem 3 explainability predicate.  Every failure carries
// a repro token that Replay re-runs.
package sim

import (
	"errors"
	"fmt"

	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/obs/flight"
	"logicallog/internal/ship"
	"logicallog/internal/wal"
)

// errShipBoundary marks the scripted run reaching its scheduled batch
// boundary — a clean stop, not a failure.
var errShipBoundary = errors.New("sim: ship boundary reached")

// boundaryTransport wraps the link, counts sends, and fires the scheduled
// boundary action exactly after the crashAt-th successful send: a primary
// crash surfaces errShipBoundary through the sender (stopping the script at
// that precise point), a standby crash restarts the standby in place and
// lets the stream converge by ack-driven resend.
type boundaryTransport struct {
	inner   ship.Transport
	sb      *ship.Standby // non-nil: crash/restart the standby at the boundary
	crashAt int           // 0-based send index; -1 = never
	sends   int
	fired   bool
}

func (bt *boundaryTransport) Send(b *ship.Batch) (ship.Ack, error) {
	ack, err := bt.inner.Send(b)
	idx := bt.sends
	bt.sends++
	if err != nil || bt.crashAt < 0 || idx != bt.crashAt {
		return ack, err
	}
	bt.fired = true
	if bt.sb == nil {
		return ack, errShipBoundary
	}
	bt.sb.Crash()
	if rerr := bt.sb.Restart(); rerr != nil {
		return ack, fmt.Errorf("%w: standby restart at boundary %d: %v", errHarness, idx, rerr)
	}
	// The pre-crash ack is still sound: Durable was forced (it survived the
	// crash) and a stale Want is corrected by the next real ack's rewind.
	return ack, nil
}

// runShip executes the target's script on a primary, continuously ships it
// to a standby under the schedule's failure, then fails over: crash the
// primary, promote the standby, and verify the promoted engine against the
// primary's history at the standby's applied horizon — plus Theorem 3
// explainability of its stable state where the base checkpoint anchors it.
// It returns the total sends, which the counting run uses as the boundary
// space.  One flight recorder is shared by the primary, the wire, and the
// standby, so a failure's dump interleaves ship batch events with the
// standby's per-record apply decisions in one sequence.
func runShip(tg Target, sched schedule) (n Boundaries, err error) {
	fl := flight.NewRecorder(1 << 10)
	bt := &boundaryTransport{crashAt: -1}
	defer func() {
		n = Boundaries{Ship: bt.sends}
		err = attachForensics(err, fl, ScheduleFailure{Target: tg, Schedule: sched.String()})
	}()
	script, post, err := tg.workload()
	if err != nil {
		return n, err
	}
	base := tg.options()
	popts := base
	popts.LogDevice = wal.NewMemDevice()
	popts.RedoWorkers = 1 + (sched.boundary+len(sched.token))%4
	popts.Flight = fl
	rec := &runRecorder{}
	eng, err := core.New(popts)
	if err != nil {
		return n, fmt.Errorf("%w: %v", errHarness, err)
	}

	sopts := base
	sopts.RedoWorkers = popts.RedoWorkers
	sopts.Flight = fl
	if base.LogInstalls {
		// The Theorem 3 recorder watches the standby's mirrored installs: they
		// run the cache manager's one installation step, so the engine's own
		// trace hook sees them.
		sopts.InstallTrace = rec.trace
	}
	// The standby keeps its whole log: the script emits non-clean
	// checkpoints (CheckpointOnly mid-dirty), and truncating at their
	// RedoStart would cut the log past the phase-0 snapshot that anchors the
	// explainability check.  Re-deriving the base ops over that snapshot is
	// the identity, so the full log explains fine.
	sb, err := ship.NewStandby(ship.StandbyConfig{Opts: sopts})
	if err != nil {
		return n, fmt.Errorf("%w: %v", errHarness, err)
	}

	var plan *fault.Plan
	if sched.kind == "fault" {
		pts, err := fault.ParseToken(sched.token)
		if err != nil {
			return n, fmt.Errorf("%w: %v", errHarness, err)
		}
		plan = fault.NewPlan(pts...)
	}
	bt.inner = ship.NewLink(sb, plan)
	switch sched.kind {
	case "primary-crash":
		bt.crashAt = sched.boundary
	case "standby-crash":
		bt.crashAt = sched.boundary
		bt.sb = sb
	}
	s := ship.NewSender(eng.Log(), bt, 1, ship.SenderConfig{BatchRecords: 3, Flight: fl})
	defer s.Close()

	scriptErr := script(eng, rec, func(int) error { return s.PumpAll() })
	boundaryHit := errors.Is(scriptErr, errShipBoundary)
	if scriptErr != nil && !boundaryHit {
		return n, fmt.Errorf("%w: ship script died: %v", errHarness, scriptErr)
	}
	if !boundaryHit {
		// Drain: everything durable must reach the standby before failover.
		if err := s.Sync(); err != nil {
			if !errors.Is(err, errShipBoundary) {
				return n, fmt.Errorf("sync: %w", err)
			}
			boundaryHit = true
		}
	}
	rec.frozen = true
	if bt.crashAt >= 0 && !bt.fired {
		return n, fmt.Errorf("%w: boundary %d never reached (%d sends)", errHarness, bt.crashAt, bt.sends)
	}
	if plan != nil {
		if un := plan.Unfired(); len(un) > 0 {
			return n, fmt.Errorf("%w: ship points never fired: %v", errHarness, un)
		}
	}

	// Failover: the primary dies; the standby's recovered state must equal
	// the single-node recovery oracle for the same log prefix.
	horizon := sb.Applied()
	hist := eng.History()
	eng.Crash()
	promoted, _, err := sb.Promote()
	if err != nil {
		return n, fmt.Errorf("promote: %w", err)
	}
	if err := checkWriteGraph(promoted); err != nil {
		return n, fmt.Errorf("after promotion: %w", err)
	}
	// Promotion may append past the applied horizon (CM identity writes from
	// the pre-adoption purge), but never lose any of it.
	if got := promoted.Log().StableLSN(); got < horizon {
		return n, fmt.Errorf("promoted durable horizon %d below standby applied %d", got, horizon)
	}
	oracleErr := VerifyHistory(promoted.Registry(), hist, promoted, horizon)
	var explainErr error
	if base.LogInstalls && rec.initial != nil {
		explainErr = checkExplainableState(promoted, rec, fl)
	}
	if err := errors.Join(oracleErr, explainErr); err != nil {
		return n, err
	}
	if post != nil {
		if err := post(promoted); err != nil {
			return n, err
		}
	}
	// The promoted engine is a working primary: flushing everything must
	// preserve the recovered state.
	if err := promoted.FlushAll(); err != nil {
		return n, fmt.Errorf("post-promotion flush: %w", err)
	}
	if err := VerifyHistory(promoted.Registry(), hist, promoted, horizon); err != nil {
		return n, fmt.Errorf("after post-promotion flush: %w", err)
	}
	return n, nil
}
