// Crash-schedule exploration: run one deterministic scripted workload to
// count its I/O boundaries, then re-run it once per boundary with a fault
// injected exactly there — a hard crash, a torn or bit-flipped append, a
// reordered batch write, a transient EIO — recover, and check the recovered
// state against the re-execution oracle and (where anchored) the paper's
// explainable-state predicate.  One Target names what a sweep runs —
// configuration, workload, crash or ship schedules — and every failure
// carries a repro token that Replay re-runs (see ScheduleFailure.Token).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/forensics"
	"logicallog/internal/installgraph"
	"logicallog/internal/obs/flight"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

// NamedConfig pairs an engine configuration with a stable name usable in
// repro tokens.
type NamedConfig struct {
	Name string
	Opts core.Options
}

// ExplorerConfigs returns the five configurations the crash-schedule
// explorer covers: the paper's recommended setup, the classic-W baseline,
// the flush-transaction strategy, installation logging disabled, and the
// physiological logging baseline.
func ExplorerConfigs() []NamedConfig {
	return []NamedConfig{
		{"rW-identity-rSI", core.DefaultOptions()},
		{"W-shadow-vSI", core.Options{
			Policy: writegraph.PolicyW, Strategy: cache.StrategyShadow,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		}},
		{"rW-flushtxn-vSI", core.Options{
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyFlushTxn,
			RedoTest: recovery.TestVSI, LogInstalls: true,
		}},
		{"rW-identity-rSI-noinstalls", core.Options{
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestRSI, LogInstalls: false,
		}},
		{"physio-vSI", core.Options{
			Policy: writegraph.PolicyRW, Strategy: cache.StrategyIdentityWrite,
			RedoTest: recovery.TestVSI, LogInstalls: true, Physiological: true,
		}},
	}
}

// LookupConfig resolves an explorer configuration by name.
func LookupConfig(name string) (NamedConfig, bool) {
	for _, c := range ExplorerConfigs() {
		if c.Name == name {
			return c, true
		}
	}
	return NamedConfig{}, false
}

// Target is what one exploration sweeps: an engine configuration, the
// workload — the flat script, or a scenario mix driving the B+tree and LSM
// domains — and the failure space: crashes and I/O faults at every WAL and
// stable-store boundary, or failures at every shipped-batch boundary of a
// primary streaming to a warm standby.
type Target struct {
	Config NamedConfig
	// Mix names a built-in scenario mix or a custom spec (see
	// workload.ParseMix); empty runs the flat script.
	Mix string
	// Ship selects the ship-schedule space (see explore_ship.go).
	Ship bool
	// rogue, when set, runs ahead of every step of a crash target's flat
	// script; the explorer self-test plants a flush-order bug with it.  A
	// repro token does not carry it.
	rogue func(step int, eng *core.Engine) error
}

// String names the target as its repro tokens begin: kind, config and —
// for a mix target — the mix, joined by "/".
func (tg Target) String() string {
	s := "crash/" + tg.Config.Name
	if tg.Ship {
		s = "ship/" + tg.Config.Name
	}
	if tg.Mix != "" {
		s += "/" + tg.Mix
	}
	return s
}

// workload returns the target's pre-crash script and its post-recovery
// domain check (nil for the flat script).
func (tg Target) workload() (exploreScript, func(*core.Engine) error, error) {
	if tg.Mix == "" {
		return runExploreScript, nil, nil
	}
	mix, err := workload.ParseMix(tg.Mix)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errHarness, err)
	}
	return mixExploreScript(mix), VerifyMixDomains, nil
}

// options returns the engine options every engine of one schedule starts
// from.  A mix target's engines share one registry with both storage
// domains registered, so a standby resolves domain functions before the
// primary's first record arrives.
func (tg Target) options() core.Options {
	opts := tg.Config.Opts
	if tg.Mix != "" {
		opts.Registry = NewDomainRegistry()
	}
	return opts
}

// ScheduleFailure is one failed schedule of a target.
type ScheduleFailure struct {
	Target Target
	// Schedule is the fault token (see fault.Plan.Token), a ship target's
	// machine crash ("primary-crash@N", "standby-crash@N"), or "none" for
	// the fault-free counting run.
	Schedule string
	Err      error
}

// Token returns the failure's repro token — the target and the schedule,
// e.g. "crash/rW-identity-rSI/write-burst/wal@25:torn=3" — which Replay
// re-runs.
func (f ScheduleFailure) Token() string { return f.Target.String() + "/" + f.Schedule }

// Repro returns a shell command replaying exactly this schedule.
func (f ScheduleFailure) Repro() string {
	test := "TestCrashScheduleReplay"
	if f.Target.Ship {
		test = "TestShipScheduleReplay"
	}
	return fmt.Sprintf("go test ./internal/sim -run %s -explore.repro '%s'", test, f.Token())
}

func (f ScheduleFailure) String() string {
	return fmt.Sprintf("[%s] %v\n    repro: %s", f.Token(), f.Err, f.Repro())
}

// Boundaries counts a fault-free run's I/O boundaries per channel (the
// boundary after I/O k is fault index k): WAL appends and stable writes
// for a crash target, shipped batches for a ship target.
type Boundaries struct {
	WAL, Stable, Ship int
}

// ExploreReport summarizes one target's exploration.
type ExploreReport struct {
	Target     Target
	Boundaries Boundaries
	// Schedules counts schedules executed (the counting run included).
	Schedules int
	Failures  []ScheduleFailure
}

// note records one executed schedule and its outcome.
func (rep *ExploreReport) note(s schedule, err error) {
	rep.Schedules++
	if err != nil {
		rep.Failures = append(rep.Failures, ScheduleFailure{rep.Target, s.String(), err})
	}
}

// errHarness marks explorer-infrastructure failures (the script died for a
// reason other than its injected fault), as opposed to recovery bugs.
var errHarness = errors.New("sim: explorer harness failure")

// Stride selects the boundaries a sweep injects faults at: every Every-th
// boundary, starting at Offset.  Stride{Every: 1} is exhaustive; a larger
// Every with a seeded Offset is a sample that still reaches every boundary
// across seeds.
type Stride struct {
	Every, Offset int
}

// boundaries returns the boundaries in [0, n) the stride selects.
func (s Stride) boundaries(n int) []int {
	every := max(s.Every, 1)
	var out []int
	for b := s.Offset % every; b < n; b += every {
		out = append(out, b)
	}
	return out
}

// Explore runs one target's exploration: a fault-free counting run, then
// one schedule per boundary the stride selects and failure variant.
// Schedule failures are collected, not fatal; only a broken harness
// returns an error.
func Explore(tg Target, stride Stride) (*ExploreReport, error) {
	rep := &ExploreReport{Target: tg}
	counting := schedule{kind: "count"}
	n, err := tg.run(counting)
	if errors.Is(err, errHarness) {
		return nil, err
	}
	rep.Boundaries = n
	rep.note(counting, err)
	for _, s := range tg.schedules(n, stride) {
		_, err := tg.run(s)
		rep.note(s, err)
	}
	return rep, nil
}

// schedules lists, in sweep order, the schedules the stride selects over
// the counting run's boundaries.
func (tg Target) schedules(n Boundaries, stride Stride) []schedule {
	var out []schedule
	if tg.Ship {
		// A primary crash with failover, a standby crash with restart, and
		// the four wire faults.
		for _, b := range stride.boundaries(n.Ship) {
			out = append(out, schedule{kind: "primary-crash", boundary: b}, schedule{kind: "standby-crash", boundary: b})
			for _, f := range []string{"drop", "dup", "reorder=0", "eio"} {
				out = append(out, schedule{kind: "fault", token: fmt.Sprintf("ship@%d:%s", b, f)})
			}
		}
		return out
	}
	at := func(pt fault.Point) { out = append(out, schedule{kind: "fault", token: pt.String()}) }
	for _, b := range stride.boundaries(n.WAL) {
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindCrash})
		// Torn tail: a short prefix of the append lands, and separately
		// the whole append lands but the ack is lost.
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindTorn, Arg: 3})
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindTorn, Arg: 1 << 20})
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindBitFlip, Arg: 13*b + 7})
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindReorder, Arg: b})
		at(fault.Point{Chan: fault.ChanWAL, Index: b, Kind: fault.KindTransient, Arg: 1})
	}
	for _, b := range stride.boundaries(n.Stable) {
		at(fault.Point{Chan: fault.ChanStable, Index: b, Kind: fault.KindCrash})
		at(fault.Point{Chan: fault.ChanStable, Index: b, Kind: fault.KindTransient, Arg: 2})
	}
	return out
}

// run executes one schedule of the target and returns the run's boundary
// counts.
func (tg Target) run(s schedule) (Boundaries, error) {
	if tg.Ship {
		return runShip(tg, s)
	}
	pts, err := fault.ParseToken(s.token)
	if err != nil {
		return Boundaries{}, fmt.Errorf("%w: %v", errHarness, err)
	}
	return runCrash(tg, fault.NewPlan(pts...))
}

// Replay re-runs one schedule from a failure's repro token (see
// ScheduleFailure.Token).
func Replay(repro string) error {
	tg, s, err := parseRepro(repro)
	if err != nil {
		return err
	}
	_, err = tg.run(s)
	return err
}

// parseRepro splits a repro token — kind/config[/mix]/schedule — into its
// target and schedule.
func parseRepro(repro string) (Target, schedule, error) {
	parts := strings.Split(strings.TrimSpace(repro), "/")
	if len(parts) != 3 && len(parts) != 4 {
		return Target{}, schedule{}, fmt.Errorf("sim: malformed repro token %q (want kind/config[/mix]/schedule)", repro)
	}
	var tg Target
	switch parts[0] {
	case "crash":
	case "ship":
		tg.Ship = true
	default:
		return Target{}, schedule{}, fmt.Errorf("sim: repro token %q: unknown kind %q", repro, parts[0])
	}
	cfg, ok := LookupConfig(parts[1])
	if !ok {
		return Target{}, schedule{}, fmt.Errorf("sim: unknown explorer config %q", parts[1])
	}
	tg.Config = cfg
	if len(parts) == 4 {
		if _, err := workload.ParseMix(parts[2]); err != nil {
			return Target{}, schedule{}, err
		}
		tg.Mix = parts[2]
	}
	s, err := parseSchedule(parts[len(parts)-1], tg.Ship)
	if err != nil {
		return Target{}, schedule{}, err
	}
	return tg, s, nil
}

// schedule is one run of a target: the fault-free counting run, a fault
// plan, or — for a ship target — a machine crash at a shipped-batch
// boundary.
type schedule struct {
	kind     string // "count", "fault", "primary-crash", "standby-crash"
	boundary int
	token    string // the fault plan's token
}

func (s schedule) String() string {
	switch s.kind {
	case "primary-crash", "standby-crash":
		return fmt.Sprintf("%s@%d", s.kind, s.boundary)
	case "fault":
		return s.token
	default:
		return "none"
	}
}

// parseSchedule parses one schedule of a crash or (ship) a ship target.
func parseSchedule(text string, ship bool) (schedule, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return schedule{kind: "count"}, nil
	}
	for _, k := range []string{"primary-crash", "standby-crash"} {
		if rest, ok := strings.CutPrefix(text, k+"@"); ok {
			if !ship {
				return schedule{}, fmt.Errorf("sim: %q is a ship schedule", text)
			}
			b, err := strconv.Atoi(rest)
			if err != nil || b < 0 {
				return schedule{}, fmt.Errorf("sim: malformed ship schedule %q", text)
			}
			return schedule{kind: k, boundary: b}, nil
		}
	}
	if _, err := fault.ParseToken(text); err != nil {
		return schedule{}, fmt.Errorf("sim: schedule %q: %w", text, err)
	}
	return schedule{kind: "fault", token: text}, nil
}

// runRecorder observes the scripted run: the initial stable snapshot that
// anchors the explainability check, and the LSNs the cache manager traced as
// installed (half of the check's witness).
type runRecorder struct {
	frozen    bool
	initial   map[op.ObjectID][]byte
	installed []op.SI // all LSNs installed so far, in trace order
}

func (r *runRecorder) trace(view *writegraph.NodeView) {
	if r.frozen {
		return
	}
	for _, o := range view.Ops {
		r.installed = append(r.installed, o.LSN)
	}
}

// exploreScript is the workload a schedule runs before the crash: the flat
// script (runExploreScript) or a scenario mix (see explore_mix.go).  before
// (may be nil) runs ahead of each step.
type exploreScript func(eng *core.Engine, rec *runRecorder, before func(step int) error) error

// attachForensics appends a compact flight dump to a schedule failure so the
// repro output carries the decision chain that led to the bad state.  When
// LL_FORENSICS_DIR is set (the CI sweeps set it), the full dump is also
// written to a file named after the failure's repro token for artifact
// upload.  Harness errors and successes pass through unchanged.
func attachForensics(err error, fl *flight.Recorder, f ScheduleFailure) error {
	if err == nil || errors.Is(err, errHarness) {
		return err
	}
	events := fl.Events()
	if dir := os.Getenv("LL_FORENSICS_DIR"); dir != "" {
		name := sanitizeToken(f.Token()) + ".flight.txt"
		if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
			_ = os.WriteFile(filepath.Join(dir, name), []byte(forensics.Dump(events, 0)), 0o644)
		}
	}
	return fmt.Errorf("%w\n%s", err, forensics.Dump(events, 24))
}

// sanitizeToken maps a repro token to a safe file name.
func sanitizeToken(token string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, token)
}

// runCrash executes the target's script under plan, crashes, heals the
// plan, recovers, and verifies oracle equivalence plus (when the run got
// far enough to anchor it) stable-state explainability.  It returns the
// plan's I/O counts, which the counting run uses as the boundary space.
func runCrash(tg Target, plan *fault.Plan) (n Boundaries, err error) {
	token := plan.Token()
	fl := flight.NewRecorder(1 << 10)
	defer func() {
		n = Boundaries{WAL: plan.Count(fault.ChanWAL), Stable: plan.Count(fault.ChanStable)}
		err = attachForensics(err, fl, ScheduleFailure{Target: tg, Schedule: token})
	}()
	script, post, err := tg.workload()
	if err != nil {
		return n, err
	}
	opts := tg.options()
	opts.LogDevice = plan.WrapDevice(wal.NewMemDevice())
	opts.Flight = fl
	rec := &runRecorder{}
	opts.InstallTrace = rec.trace
	eng, err := core.New(opts)
	if err != nil {
		return n, fmt.Errorf("%w: %v", errHarness, err)
	}
	eng.Store().SetWriteProbe(plan.StableProbe())

	var before func(int) error
	if tg.rogue != nil {
		before = func(step int) error { return tg.rogue(step, eng) }
	}
	scriptErr := script(eng, rec, before)
	rec.frozen = true
	// Transient EIOs are normally absorbed by the retry loops, but a script
	// path without one (e.g. a rogue hook's raw store write) may surface the
	// fault itself — that is still the injected fault, not a harness bug.
	if scriptErr != nil && !errors.Is(scriptErr, fault.ErrInjected) && !wal.IsTransient(scriptErr) {
		return n, fmt.Errorf("%w: script died without an injected fault: %v", errHarness, scriptErr)
	}
	if scriptErr == nil {
		if un := plan.Unfired(); len(un) > 0 {
			return n, fmt.Errorf("%w: script completed but points never fired: %v", errHarness, un)
		}
	}

	eng.Crash()
	plan.Heal()
	if _, err := eng.Recover(); err != nil {
		return n, fmt.Errorf("recover: %w", err)
	}
	if err := checkWriteGraph(eng); err != nil {
		return n, fmt.Errorf("after recovery: %w", err)
	}
	// The durable horizon is re-derived by recovery (a torn or reordered
	// final append trims the log below the pre-crash acked horizon).
	horizon := eng.Log().StableLSN()
	// Both nets run on every schedule, so a failure names each that caught it.
	oracleErr := VerifyAgainstOracle(eng, horizon)
	var explainErr error
	if rec.initial != nil {
		explainErr = checkExplainableState(eng, rec, fl)
	}
	if err := errors.Join(oracleErr, explainErr); err != nil {
		return n, err
	}
	if post != nil {
		if err := post(eng); err != nil {
			return n, err
		}
	}
	if err := eng.FlushAll(); err != nil {
		return n, fmt.Errorf("post-recovery flush: %w", err)
	}
	return n, VerifyAgainstOracle(eng, horizon)
}

// checkWriteGraph runs the write graph's own invariant check — structure,
// acyclicity, the per-object indexes and the maintained order, each rebuilt
// from node contents — on a quiescent engine.
func checkWriteGraph(eng *core.Engine) error {
	if err := eng.Cache().WriteGraph().Validate(); err != nil {
		return fmt.Errorf("write graph: %w", err)
	}
	return nil
}

// Scripted workload parameters.  The script is fully deterministic: the
// same engine configuration always issues the same I/O sequence, so a fault
// index from the counting run lands on the same I/O in every variant.
const (
	exploreObjects = 8
	exploreSteps   = 200
	exploreSeed    = 0x10fa117
)

// runExploreScript drives the deterministic mixed workload: create and
// flush a base population, truncate it off the log (anchoring the
// explainability check), then interleave logical/physiological/physical
// operations with forces, minimal installs, non-truncating checkpoints,
// deletes, and re-creates.
func runExploreScript(eng *core.Engine, rec *runRecorder, before func(step int) error) error {
	rng := rand.New(rand.NewSource(exploreSeed))
	objects := make([]op.ObjectID, exploreObjects)
	for i := range objects {
		objects[i] = op.ObjectID(fmt.Sprintf("x%d", i))
	}
	live := make([]bool, exploreObjects)

	// Phase 0: base population, flushed and truncated off the log so the
	// initial values exist only in the stable database (with the blind
	// creations still on the log, I = {} would explain any state).
	for i, x := range objects {
		v := make([]byte, 8)
		rng.Read(v)
		if err := eng.Execute(op.NewCreate(x, v)); err != nil {
			return fmt.Errorf("create %s: %w", x, err)
		}
		live[i] = true
	}
	if err := eng.FlushAll(); err != nil {
		return fmt.Errorf("base flush: %w", err)
	}
	if err := eng.Checkpoint(); err != nil {
		return fmt.Errorf("base checkpoint: %w", err)
	}
	initial := make(map[op.ObjectID][]byte, exploreObjects)
	for id, v := range eng.Store().Snapshot() {
		initial[id] = append([]byte(nil), v.Val...)
	}
	rec.initial = initial

	for step := 0; step < exploreSteps; step++ {
		if before != nil {
			if err := before(step); err != nil {
				return fmt.Errorf("hook at step %d: %w", step, err)
			}
		}
		if step%3 == 1 {
			if err := eng.Log().Force(); err != nil {
				return fmt.Errorf("force at step %d: %w", step, err)
			}
		}
		if step%4 == 2 {
			if err := eng.InstallOne(); err != nil {
				return fmt.Errorf("install at step %d: %w", step, err)
			}
		}
		if step%29 == 17 {
			if err := eng.CheckpointOnly(); err != nil {
				return fmt.Errorf("checkpoint at step %d: %w", step, err)
			}
		}
		if step%43 == 37 {
			// A full purge drives multi-object stable batches through
			// whichever flush strategy the configuration uses.
			if err := eng.FlushAll(); err != nil {
				return fmt.Errorf("purge at step %d: %w", step, err)
			}
		}
		o := lifecycleOp(rng, objects, live, step)
		if o == nil {
			o = exploreOp(rng, objects, live, step)
		}
		if o == nil {
			continue
		}
		if err := eng.Execute(o); err != nil {
			return fmt.Errorf("execute %s at step %d: %w", o, step, err)
		}
		for _, w := range o.WriteSet {
			for i, x := range objects {
				if x == w {
					live[i] = o.Kind != op.KindDelete
				}
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		return fmt.Errorf("final force: %w", err)
	}
	return nil
}

// lifecycleOp occasionally deletes or re-creates an object.  x0 and x1 are
// never deleted, so exploreOp always has operands.
func lifecycleOp(rng *rand.Rand, objects []op.ObjectID, live []bool, step int) *op.Operation {
	switch step % 19 {
	case 12:
		liveCount := 0
		for _, l := range live {
			if l {
				liveCount++
			}
		}
		if liveCount <= 4 {
			return nil
		}
		if i := pickIndex(rng, live, true, 2); i >= 0 {
			return op.NewDelete(objects[i])
		}
	case 13:
		if i := pickIndex(rng, live, false, 0); i >= 0 {
			v := make([]byte, 8)
			rng.Read(v)
			return op.NewCreate(objects[i], v)
		}
	}
	return nil
}

// exploreOp builds the step's mutation over live objects, cycling through
// physical writes, physiological self-transforms, and both logical forms.
func exploreOp(rng *rand.Rand, objects []op.ObjectID, live []bool, step int) *op.Operation {
	xi := pickIndex(rng, live, true, 0)
	yi := pickIndex(rng, live, true, 0)
	if xi < 0 || yi < 0 {
		return nil
	}
	x, y := objects[xi], objects[yi]
	switch step % 5 {
	case 0:
		v := make([]byte, 8)
		rng.Read(v)
		return op.NewPhysicalWrite(x, v)
	case 1:
		return op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(step)})
	case 2: // A-form logical: y <- y xor x
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{1})
		}
		return op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
			[]op.ObjectID{x, y}, []op.ObjectID{y})
	case 3: // B-form logical: x <- copy(y)
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{2})
		}
		return op.NewLogical(op.FuncCopy, []byte(x), []op.ObjectID{y}, []op.ObjectID{x})
	default:
		v := make([]byte, 4)
		rng.Read(v)
		return op.NewPhysicalWrite(y, v)
	}
}

// pickIndex picks a uniform random object index with liveness == want and
// index >= min, or -1 if none qualifies.
func pickIndex(rng *rand.Rand, live []bool, want bool, min int) int {
	var cand []int
	for i := min; i < len(live); i++ {
		if live[i] == want {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[rng.Intn(len(cand))]
}

// errUnexplained marks a Theorem 3 violation: the run's witness prefix set
// does not explain the stable state.
var errUnexplained = errors.New("sim: stable state not explained by the run's witness prefix set")

// checkExplainableState checks the paper's Theorem 3 against the recovered
// run: the stable database must be explainable — some prefix set I of the
// durable history's installation graph gives every object exposed by I
// exactly its value after the last operation of I.
//
// The run names its own witness, so nothing is searched: I is the
// operations the stable store's stamps cover (stampCandidate) together with
// every durable operation the cache manager traced as installed.  The
// stamps carry installs whose trace a crash cut off (a flush transaction
// repaired by recovery, a torn batch); the trace carries deleters, whose
// objects keep no stamp.  One evaluation decides: a witness that does not
// explain the state is a violation.
func checkExplainableState(eng *core.Engine, rec *runRecorder, fl *flight.Recorder) error {
	sc, err := eng.Log().Scan(0)
	if err != nil {
		return fmt.Errorf("explainability scan: %w", err)
	}
	recs, err := sc.All()
	if err != nil {
		return fmt.Errorf("explainability scan: %w", err)
	}
	var history []*op.Operation
	for _, r := range recs {
		if r.Type == wal.RecOperation {
			history = append(history, r.Op)
		}
	}
	ig, err := installgraph.Build(history)
	if err != nil {
		return fmt.Errorf("explainability graph: %w", err)
	}
	snap := eng.Store().Snapshot()
	I := stampCandidate(ig, history, snap)
	// Installed operations truncated off the log are not in the graph; the
	// initial snapshot already carries their effects.
	for _, lsn := range rec.installed {
		if ig.Op(lsn) != nil {
			I[lsn] = true
		}
	}
	S := make(map[op.ObjectID][]byte, len(snap))
	for id, v := range snap {
		S[id] = v.Val
	}
	objects := ig.TouchedObjects()
	ig.SetFlight(fl)
	ok, err := ig.Explains(eng.Registry(), I, S, rec.initial, objects)
	ig.SetFlight(nil) // whyUnexplained replays again; the dump shows one evaluation
	if err != nil {
		return fmt.Errorf("explainability check: %w", err)
	}
	if ok {
		return nil
	}
	return fmt.Errorf("%w (history %d ops, witness %d ops): %s",
		errUnexplained, len(history), len(I), whyUnexplained(eng.Registry(), ig, I, snap, rec.initial, objects))
}

// whyUnexplained names what a witness that failed Explains gets wrong: a
// predecessor edge it does not close over, or each exposed object whose
// stable value differs from its value after the witness.
func whyUnexplained(reg *op.Registry, ig *installgraph.Graph, I installgraph.PrefixSet,
	snap map[op.ObjectID]stable.Versioned, initial map[op.ObjectID][]byte, objects []op.ObjectID) string {
	for _, l := range I.Sorted() {
		for _, p := range ig.Predecessors(l) {
			if !I[p] {
				return fmt.Sprintf("not a prefix set: holds %d but not its predecessor %d (%s edge)", l, p, ig.EdgeKindOf(p, l))
			}
		}
	}
	want, err := ig.ValueAfter(reg, I, initial)
	if err != nil {
		return err.Error()
	}
	var diffs []string
	for _, x := range objects {
		if !ig.Exposed(I, x) || op.Equal(snap[x].Val, want[x]) {
			continue
		}
		stamp := "absent from the store"
		if v, ok := snap[x]; ok {
			stamp = fmt.Sprintf("stable vSI %d", v.VSI)
		}
		diffs = append(diffs, fmt.Sprintf("%s (%s, last writer in witness %d)", x, stamp, ig.LastWriter(I, x)))
	}
	return "exposed objects differ from their value after the witness: " + strings.Join(diffs, ", ")
}

// stampCandidate derives the stamp half of the Theorem 3 witness from the
// stable store's version stamps: an operation is included when every object it writes
// carries a stamp at or beyond the operation's LSN (a later stamp means a
// later installed writer superseded it, which installation order permits),
// and the set is then closed downward under installation edges so
// IsPrefixSet holds by construction whenever the graph is acyclic along
// the added paths.  Deleted objects carry no stamp, so their deleters are
// left out; the traced install set supplies them.
func stampCandidate(ig *installgraph.Graph, history []*op.Operation, snap map[op.ObjectID]stable.Versioned) installgraph.PrefixSet {
	I := installgraph.NewPrefixSet()
	for _, o := range history {
		covered := true
		for _, x := range o.WriteSet {
			if v, ok := snap[x]; !ok || v.VSI < o.LSN {
				covered = false
				break
			}
		}
		if covered {
			I[o.LSN] = true
		}
	}
	queue := I.Sorted()
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range ig.Predecessors(l) {
			if !I[p] {
				I[p] = true
				queue = append(queue, p)
			}
		}
	}
	return I
}
