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
// a replayable repro schedule.
package sim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/obs/flight"
	"logicallog/internal/ship"
	"logicallog/internal/wal"
)

// ShipScheduleFailure is one failed ship schedule.  Mix is empty for the
// default scripted workload; otherwise it names the scenario mix that drove
// the primary.
type ShipScheduleFailure struct {
	Config   string
	Mix      string
	Schedule string
	Err      error
}

// Repro returns a shell command replaying exactly this schedule.
func (f ShipScheduleFailure) Repro() string {
	if f.Mix != "" {
		return fmt.Sprintf("go test ./internal/sim -run TestShipScheduleReplay -ship.config %q -ship.mix %q -ship.schedule %q", f.Config, f.Mix, f.Schedule)
	}
	return fmt.Sprintf("go test ./internal/sim -run TestShipScheduleReplay -ship.config %q -ship.schedule %q", f.Config, f.Schedule)
}

func (f ShipScheduleFailure) String() string {
	name := f.Config
	if f.Mix != "" {
		name += "/" + f.Mix
	}
	return fmt.Sprintf("[%s @ %s] %v\n    repro: %s", name, f.Schedule, f.Err, f.Repro())
}

// ShipExploreReport summarizes one configuration's ship exploration.
type ShipExploreReport struct {
	Config string
	// Boundaries counts the fault-free run's shipped batches (the boundary
	// after send k is schedule index k).
	Boundaries int
	// Schedules counts schedules executed (the counting run included).
	Schedules int
	Failures  []ShipScheduleFailure
}

// shipSchedule is one parsed schedule: the counting run, a machine crash at
// a shipped-batch boundary, or a fault plan on the ship channel.
type shipSchedule struct {
	kind     string // "count", "primary-crash", "standby-crash", "fault"
	boundary int
	token    string
}

func (s shipSchedule) String() string {
	switch s.kind {
	case "primary-crash", "standby-crash":
		return fmt.Sprintf("%s@%d", s.kind, s.boundary)
	case "fault":
		return s.token
	default:
		return "none"
	}
}

func parseShipSchedule(text string) (shipSchedule, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return shipSchedule{kind: "count"}, nil
	}
	for _, k := range []string{"primary-crash", "standby-crash"} {
		if rest, ok := strings.CutPrefix(text, k+"@"); ok {
			b, err := strconv.Atoi(rest)
			if err != nil || b < 0 {
				return shipSchedule{}, fmt.Errorf("sim: malformed ship schedule %q", text)
			}
			return shipSchedule{kind: k, boundary: b}, nil
		}
	}
	if _, err := fault.ParseToken(text); err != nil {
		return shipSchedule{}, fmt.Errorf("sim: ship schedule %q: %w", text, err)
	}
	return shipSchedule{kind: "fault", token: text}, nil
}

// ExploreShip runs the ship-schedule exploration for one configuration: a
// fault-free counting run, then — per shipped-batch boundary the stride
// selects — a primary crash with failover, a standby crash with restart, and
// the four wire faults.  Schedule failures are collected, not fatal; only a
// broken harness returns an error.
func ExploreShip(cfg NamedConfig, stride Stride) (*ShipExploreReport, error) {
	return exploreShipWith(cfg, stride, "", runExploreScript, nil)
}

// exploreShipWith is the ship-exploration loop shared by the default script
// and the scenario-mix sweeps (see ExploreShipMix).
func exploreShipWith(cfg NamedConfig, stride Stride, mix string, script exploreScript, post func(*core.Engine) error) (*ShipExploreReport, error) {
	rep := &ShipExploreReport{Config: cfg.Name}

	sends, err := runShipScheduleWith(cfg, shipSchedule{kind: "count"}, script, post)
	rep.Schedules++
	if errors.Is(err, errHarness) {
		return nil, err
	}
	if err != nil {
		rep.Failures = append(rep.Failures, ShipScheduleFailure{cfg.Name, mix, "none", err})
	}
	rep.Boundaries = sends

	run := func(sched shipSchedule) {
		rep.Schedules++
		if _, err := runShipScheduleWith(cfg, sched, script, post); err != nil {
			rep.Failures = append(rep.Failures, ShipScheduleFailure{cfg.Name, mix, sched.String(), err})
		}
	}
	for _, b := range stride.boundaries(rep.Boundaries) {
		run(shipSchedule{kind: "primary-crash", boundary: b})
		run(shipSchedule{kind: "standby-crash", boundary: b})
		for _, tok := range []string{
			fmt.Sprintf("ship@%d:drop", b),
			fmt.Sprintf("ship@%d:dup", b),
			fmt.Sprintf("ship@%d:reorder=0", b),
			fmt.Sprintf("ship@%d:eio", b),
		} {
			run(shipSchedule{kind: "fault", token: tok})
		}
	}
	return rep, nil
}

// ReplayShipSchedule re-runs one ship schedule from its repro text.
func ReplayShipSchedule(configName, schedule string) error {
	cfg, ok := LookupConfig(configName)
	if !ok {
		return fmt.Errorf("sim: unknown explorer config %q", configName)
	}
	sched, err := parseShipSchedule(schedule)
	if err != nil {
		return err
	}
	_, err = runShipSchedule(cfg, sched)
	return err
}

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

// runShipSchedule executes the scripted workload on a primary, continuously
// ships it to a standby under the schedule's failure, then fails over: crash
// the primary, promote the standby, and verify the promoted engine against
// the primary's history at the standby's applied horizon — plus Theorem 3
// explainability of its stable state where the base checkpoint anchors it.
// It returns the total sends, which the counting run uses as the boundary
// space.
func runShipSchedule(cfg NamedConfig, sched shipSchedule) (int, error) {
	return runShipScheduleWith(cfg, sched, runExploreScript, nil)
}

// runShipScheduleWith is runShipSchedule parameterized by the primary's
// script and an optional domain-level check on the promoted standby.
func runShipScheduleWith(cfg NamedConfig, sched shipSchedule, script exploreScript, post func(*core.Engine) error) (int, error) {
	fl := flight.NewRecorder(1 << 10)
	sends, err := runShipScheduleFlight(cfg, sched, script, post, fl)
	if err != nil && !errors.Is(err, errHarness) {
		err = attachForensics(err, fl, sched.String())
	}
	return sends, err
}

// runShipScheduleFlight shares one flight recorder between the primary, the
// wire, and the standby, so a failure's dump interleaves ship batch events
// with the standby's per-record apply decisions in one sequence.
func runShipScheduleFlight(cfg NamedConfig, sched shipSchedule, script exploreScript, post func(*core.Engine) error, fl *flight.Recorder) (int, error) {
	popts := cfg.Opts
	popts.LogDevice = wal.NewMemDevice()
	popts.RedoWorkers = 1 + (sched.boundary+len(sched.token))%4
	popts.Flight = fl
	rec := &runRecorder{}
	eng, err := core.New(popts)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errHarness, err)
	}

	sopts := cfg.Opts
	sopts.RedoWorkers = popts.RedoWorkers
	sopts.Flight = fl
	if cfg.Opts.LogInstalls {
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
		return 0, fmt.Errorf("%w: %v", errHarness, err)
	}

	var plan *fault.Plan
	if sched.kind == "fault" {
		pts, err := fault.ParseToken(sched.token)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", errHarness, err)
		}
		plan = fault.NewPlan(pts...)
	}
	bt := &boundaryTransport{inner: ship.NewLink(sb, plan), crashAt: -1}
	switch sched.kind {
	case "primary-crash":
		bt.crashAt = sched.boundary
	case "standby-crash":
		bt.crashAt = sched.boundary
		bt.sb = sb
	}
	s := ship.NewSender(eng.Log(), bt, 1, ship.SenderConfig{BatchRecords: 3, Flight: fl})
	defer s.Close()

	scriptErr := script(eng, rec, func(step int, _ *core.Engine) error {
		return s.PumpAll()
	})
	boundaryHit := errors.Is(scriptErr, errShipBoundary)
	if scriptErr != nil && !boundaryHit {
		return bt.sends, fmt.Errorf("%w: ship script died: %v", errHarness, scriptErr)
	}
	if !boundaryHit {
		// Drain: everything durable must reach the standby before failover.
		if err := s.Sync(); err != nil {
			if !errors.Is(err, errShipBoundary) {
				return bt.sends, fmt.Errorf("sync: %w", err)
			}
			boundaryHit = true
		}
	}
	rec.frozen = true
	if bt.crashAt >= 0 && !bt.fired {
		return bt.sends, fmt.Errorf("%w: boundary %d never reached (%d sends)", errHarness, bt.crashAt, bt.sends)
	}
	if plan != nil {
		if un := plan.Unfired(); len(un) > 0 {
			return bt.sends, fmt.Errorf("%w: ship points never fired: %v", errHarness, un)
		}
	}

	// Failover: the primary dies; the standby's recovered state must equal
	// the single-node recovery oracle for the same log prefix.
	horizon := sb.Applied()
	hist := eng.History()
	eng.Crash()
	promoted, _, err := sb.Promote()
	if err != nil {
		return bt.sends, fmt.Errorf("promote: %w", err)
	}
	if err := checkWriteGraph(promoted); err != nil {
		return bt.sends, fmt.Errorf("after promotion: %w", err)
	}
	// Promotion may append past the applied horizon (CM identity writes from
	// the pre-adoption purge), but never lose any of it.
	if got := promoted.Log().StableLSN(); got < horizon {
		return bt.sends, fmt.Errorf("promoted durable horizon %d below standby applied %d", got, horizon)
	}
	if err := VerifyHistory(promoted.Registry(), hist, promoted, horizon); err != nil {
		return bt.sends, err
	}
	if cfg.Opts.LogInstalls && rec.initial != nil {
		if err := checkExplainableState(promoted, rec, fl); err != nil {
			return bt.sends, err
		}
	}
	if post != nil {
		if err := post(promoted); err != nil {
			return bt.sends, err
		}
	}
	// The promoted engine is a working primary: flushing everything must
	// preserve the recovered state.
	if err := promoted.FlushAll(); err != nil {
		return bt.sends, fmt.Errorf("post-promotion flush: %w", err)
	}
	if err := VerifyHistory(promoted.Registry(), hist, promoted, horizon); err != nil {
		return bt.sends, fmt.Errorf("after post-promotion flush: %w", err)
	}
	return bt.sends, nil
}
