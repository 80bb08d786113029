package sim

import (
	"flag"
	"strings"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/op"
	"logicallog/internal/stable"
)

var (
	faultConfig = flag.String("fault.config", "", "explorer config name for TestCrashScheduleReplay")
	faultToken  = flag.String("fault.token", "", "fault plan token for TestCrashScheduleReplay")
)

// TestCrashScheduleExplorer is the crash-schedule sweep: for each explorer
// configuration, count the scripted workload's I/O boundaries, then crash
// (or tear, flip, reorder, EIO) at each boundary the sweep selects — every
// one under LL_EXPLORE=full — and demand oracle equivalence and stable-state
// explainability after recovery.
func TestCrashScheduleExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(cfg, sweepStride(t, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			total := rep.WALBoundaries + rep.StableBoundaries
			if total <= 100 {
				t.Errorf("only %d I/O boundaries (%d WAL + %d stable); the script no longer exercises the fault space",
					total, rep.WALBoundaries, rep.StableBoundaries)
			}
			t.Logf("%s: %d schedules over %d WAL + %d stable boundaries",
				cfg.Name, rep.Schedules, rep.WALBoundaries, rep.StableBoundaries)
			for _, f := range rep.Failures {
				t.Errorf("schedule failed: %v", f)
			}
		})
	}
}

// buggyRogue simulates a buggy cache policy that violates the write-graph
// flush order behind the manager's back at step 60.  On two private objects
// (the script never touches them, so nothing later masks the corruption) it
// logs A: rogue1 <- copy(rogue0) then B: rogue0 <- append(rogue0, ...) —
// A reads what B overwrites, so the installation graph's read-write edge
// A -> B demands A's result reach the stable store no later than B's — then
// flushes B's rogue0 directly while A's rogue1 stays unflushed: exactly the
// Figure 1 order the graph forbids.  Any crash in that window makes A's
// redo read the future rogue0, diverging from the oracle, and leaves a
// stable state no prefix set explains.
func buggyRogue(step int, eng *core.Engine) error {
	if step != 60 {
		return nil
	}
	if err := eng.Execute(op.NewCreate("rogue0", []byte{0xAA, 0xBB})); err != nil {
		return err
	}
	if err := eng.Execute(op.NewCreate("rogue1", []byte{0x11})); err != nil {
		return err
	}
	a := op.NewLogical(op.FuncCopy, []byte("rogue1"),
		[]op.ObjectID{"rogue0"}, []op.ObjectID{"rogue1"})
	if err := eng.Execute(a); err != nil {
		return err
	}
	b := op.NewPhysioWrite("rogue0", op.FuncAppend, []byte{0x5A})
	if err := eng.Execute(b); err != nil {
		return err
	}
	if err := eng.Log().Force(); err != nil {
		return err
	}
	v, err := eng.Get("rogue0")
	if err != nil {
		return err
	}
	return eng.Store().WriteBatch([]stable.Entry{{ID: "rogue0", Val: v, VSI: b.LSN}}, stable.ModeSingle)
}

// TestExplorerCatchesBuggyPolicy is the explorer's self-test: planting a
// flush-order violation in the workload must produce failing schedules, and
// each failure's token must replay to the same failure.  It is never
// sampled: it crashes at every boundary whatever LL_EXPLORE says.
func TestExplorerCatchesBuggyPolicy(t *testing.T) {
	t.Parallel()
	cfg, _ := LookupConfig("rW-identity-rSI")
	rep, err := Explore(cfg, Stride{Every: 1}, buggyRogue)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("explorer did not catch the planted flush-order violation")
	}
	var withFault *ScheduleFailure
	for i := range rep.Failures {
		if rep.Failures[i].Token != "none" {
			withFault = &rep.Failures[i]
			break
		}
	}
	if withFault == nil {
		t.Fatalf("no failing schedule carries a fault token: %v", rep.Failures)
	}
	if !strings.Contains(withFault.Repro(), withFault.Token) {
		t.Errorf("repro line %q does not embed the token", withFault.Repro())
	}
	t.Logf("caught at %d schedules, e.g. %v", len(rep.Failures), *withFault)

	// Replay the failing schedule (rogue included) from its token alone.
	pts, err := fault.ParseToken(withFault.Token)
	if err != nil {
		t.Fatalf("failure token %q does not parse: %v", withFault.Token, err)
	}
	if err := runSchedule(cfg, fault.NewPlan(pts...), buggyRogue); err == nil {
		t.Errorf("token %q did not replay to a failure", withFault.Token)
	}
}

// TestDBTransientFaultRetry drives the full scripted workload through
// transient EIO bursts on both channels and expects the engine's capped-
// backoff retry loops (log force and stable flush) to absorb every one:
// the script completes, every point fires, and the crash/recover/verify
// tail of the schedule still holds.
func TestDBTransientFaultRetry(t *testing.T) {
	cfg, ok := LookupConfig("rW-identity-rSI")
	if !ok {
		t.Fatal("missing default explorer config")
	}
	plan := fault.NewPlan(
		fault.Point{Chan: fault.ChanWAL, Index: 5, Kind: fault.KindTransient, Arg: 3},
		fault.Point{Chan: fault.ChanWAL, Index: 41, Kind: fault.KindTransient, Arg: 1},
		fault.Point{Chan: fault.ChanStable, Index: 3, Kind: fault.KindTransient, Arg: 3},
		fault.Point{Chan: fault.ChanStable, Index: 20, Kind: fault.KindTransient, Arg: 2},
	)
	if err := runSchedule(cfg, plan, nil); err != nil {
		t.Fatalf("transient faults were not absorbed by the retry loops: %v", err)
	}
	// Arg=n re-arms on the next n-1 retries, so 4 points fire 3+1+3+2 times.
	if got := len(plan.Fired()); got != 9 {
		t.Errorf("expected 9 transient firings, got %d: %v", got, plan.Fired())
	}
}

// TestCrashScheduleReplay replays one schedule from a repro token:
//
//	go test ./internal/sim -run TestCrashScheduleReplay \
//	    -fault.config "rW-identity-rSI" -fault.token "wal@17:torn=3"
func TestCrashScheduleReplay(t *testing.T) {
	if *faultToken == "" && *faultConfig == "" {
		t.Skip("no -fault.token/-fault.config given")
	}
	if *faultMixFlag != "" {
		if err := ReplayMixSchedule(*faultConfig, *faultMixFlag, *faultToken); err != nil {
			t.Fatalf("schedule %q (mix %q) on %q failed: %v", *faultToken, *faultMixFlag, *faultConfig, err)
		}
		return
	}
	if err := ReplaySchedule(*faultConfig, *faultToken); err != nil {
		t.Fatalf("schedule %q on %q failed: %v", *faultToken, *faultConfig, err)
	}
}
