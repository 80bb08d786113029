package sim

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/op"
	"logicallog/internal/stable"
)

var reproFlag = flag.String("explore.repro", "", "repro token of one explorer schedule, for TestCrashScheduleReplay and TestShipScheduleReplay")

// TestCrashScheduleExplorer is the crash-schedule sweep: for each explorer
// configuration, count the scripted workload's I/O boundaries, then crash
// (or tear, flip, reorder, EIO) at each boundary the sweep selects — every
// one under LL_EXPLORE=full — and demand oracle equivalence and stable-state
// explainability after recovery.
func TestCrashScheduleExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			sweep(t, Target{Config: cfg}, sweepStride(t, 1))
		})
	}
}

// sweep explores tg, logs its schedule and boundary counts, checks the
// workload still reaches enough boundaries, and reports every failing
// schedule with its repro line.
func sweep(t *testing.T, tg Target, stride Stride) {
	t.Helper()
	rep, err := Explore(tg, stride)
	if err != nil {
		t.Fatalf("%s: harness: %v", tg, err)
	}
	name, n := tg.Config.Name, rep.Boundaries
	if tg.Mix != "" {
		name += "/" + tg.Mix
	}
	if tg.Ship {
		t.Logf("%s: %d batch boundaries, %d schedules", name, n.Ship, rep.Schedules)
		if n.Ship < 20 {
			t.Errorf("%s: only %d batch boundaries — the workload should ship far more", name, n.Ship)
		}
	} else {
		t.Logf("%s: %d schedules over %d WAL + %d stable boundaries", name, rep.Schedules, n.WAL, n.Stable)
		if total := n.WAL + n.Stable; total <= 100 {
			t.Errorf("%s: only %d I/O boundaries (%d WAL + %d stable); the workload no longer exercises the fault space",
				name, total, n.WAL, n.Stable)
		}
	}
	for _, f := range rep.Failures {
		t.Errorf("schedule failed: %v", f)
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

// funcRogueSwap is identityWriteRogue's two-output operation:
// (a, b) <- (b, a), reading and writing both.  The rogue registers it on
// its engine's registry, which recovery and both oracles share.
const funcRogueSwap op.FuncID = "sim.rogue.swap"

func rogueSwap(params []byte, args *op.Args) error {
	ids, err := op.DecodeParams(params)
	if err != nil || len(ids) != 2 {
		return fmt.Errorf("rogue swap: want (a, b) params: %v", err)
	}
	a, b := op.ObjectID(ids[0]), op.ObjectID(ids[1])
	args.Write(a, append([]byte(nil), args.Read(b)...))
	args.Write(b, append([]byte(nil), args.Read(a)...))
	return nil
}

// identityWriteRogue misuses Section 4's identity write at step 60.  On two
// private objects it logs O: (rogue2, rogue3) <- swap(rogue2, rogue3), then
// the identity write W_IP(rogue2) that lets rogue2 leave O's flush set, and
// writes W_IP(rogue2)'s value to the stable store stamped with its LSN —
// while O's other output rogue3 is still exposed and unflushed (no
// W_IP(rogue3) peeled it out).  A prefix set without O exposes rogue2 at its
// old value; one with O exposes rogue3 at O's value: no prefix set explains
// a crash in that window.
func identityWriteRogue(step int, eng *core.Engine) error {
	if step != 60 {
		return nil
	}
	eng.Registry().Register(funcRogueSwap, rogueSwap)
	if err := eng.Execute(op.NewCreate("rogue2", []byte{0x22})); err != nil {
		return err
	}
	if err := eng.Execute(op.NewCreate("rogue3", []byte{0x33, 0x44})); err != nil {
		return err
	}
	pair := []op.ObjectID{"rogue2", "rogue3"}
	if err := eng.Execute(op.NewLogical(funcRogueSwap, op.EncodeParams([]byte("rogue2"), []byte("rogue3")), pair, pair)); err != nil {
		return err
	}
	v, err := eng.Get("rogue2")
	if err != nil {
		return err
	}
	w := op.NewIdentityWrite("rogue2", v)
	if err := eng.Execute(w); err != nil {
		return err
	}
	if err := eng.Log().Force(); err != nil {
		return err
	}
	return eng.Store().WriteBatch([]stable.Entry{{ID: "rogue2", Val: v, VSI: w.LSN}}, stable.ModeSingle)
}

// TestExplorerCatchesBuggyPolicy is the explorer's self-test: each planted
// bug must produce at least its pinned number of failing schedules, the
// Theorem 3 check itself must report every one of them (not only oracle
// equivalence), and a failure's token must replay to a failure.  It is
// never sampled: it crashes at every boundary whatever LL_EXPLORE says.
func TestExplorerCatchesBuggyPolicy(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		rogue func(step int, eng *core.Engine) error
		min   int
	}{
		{"flush-order", buggyRogue, 52},
		{"identity-write", identityWriteRogue, 52},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg, _ := LookupConfig("rW-identity-rSI")
			rep, err := Explore(Target{Config: cfg, rogue: tc.rogue}, Stride{Every: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failures) < tc.min {
				t.Fatalf("explorer caught the planted bug at %d schedules, want at least %d", len(rep.Failures), tc.min)
			}
			var withFault *ScheduleFailure
			for i, f := range rep.Failures {
				if !errors.Is(f.Err, errUnexplained) {
					t.Errorf("[%s] not reported by the Theorem 3 check: %v", f.Token(), f.Err)
				}
				if withFault == nil && f.Schedule != "none" {
					withFault = &rep.Failures[i]
				}
			}
			if withFault == nil {
				t.Fatalf("no failing schedule carries a fault token: %v", rep.Failures)
			}
			if !strings.Contains(withFault.Repro(), withFault.Token()) {
				t.Errorf("repro line %q does not embed the token", withFault.Repro())
			}
			t.Logf("caught at %d schedules, e.g. %v", len(rep.Failures), *withFault)

			// Replay the failing schedule from its repro token, rogue included.
			tg, s, err := parseRepro(withFault.Token())
			if err != nil {
				t.Fatalf("repro token %q does not parse: %v", withFault.Token(), err)
			}
			tg.rogue = tc.rogue
			if _, err := tg.run(s); !errors.Is(err, errUnexplained) {
				t.Errorf("%q did not replay to a Theorem 3 failure: %v", withFault.Token(), err)
			}
		})
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
	if _, err := runCrash(Target{Config: cfg}, plan); err != nil {
		t.Fatalf("transient faults were not absorbed by the retry loops: %v", err)
	}
	// Arg=n re-arms on the next n-1 retries, so 4 points fire 3+1+3+2 times.
	if got := len(plan.Fired()); got != 9 {
		t.Errorf("expected 9 transient firings, got %d: %v", got, plan.Fired())
	}
}

// TestCrashScheduleReplay replays one crash schedule from the repro token a
// failure printed:
//
//	go test ./internal/sim -run TestCrashScheduleReplay \
//	    -explore.repro 'crash/rW-identity-rSI/wal@17:torn=3'
func TestCrashScheduleReplay(t *testing.T) { replayRepro(t, false) }

// replayRepro replays the -explore.repro token if it names a target of the
// calling test's kind.
func replayRepro(t *testing.T, ship bool) {
	if *reproFlag == "" {
		t.Skip("no -explore.repro given; this test replays an explorer failure's repro token")
	}
	tg, _, err := parseRepro(*reproFlag)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Ship != ship {
		t.Skipf("%q is replayed by the other schedule replay test", *reproFlag)
	}
	if err := Replay(*reproFlag); err != nil {
		t.Fatalf("%s: %v", *reproFlag, err)
	}
}

// TestForensicDumpsNamedByTarget: two failures that share a fault token but
// not a target must leave two flight dumps under LL_FORENSICS_DIR, each
// named after its failure's repro token.
func TestForensicDumpsNamedByTarget(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("LL_FORENSICS_DIR", dir)
	s := schedule{kind: "fault", token: "wal@34:crash"}
	want := map[string]bool{}
	for _, name := range []string{"rW-identity-rSI", "rW-flushtxn-vSI"} {
		cfg, _ := LookupConfig(name)
		tg := Target{Config: cfg, rogue: buggyRogue}
		if _, err := tg.run(s); err == nil {
			t.Fatalf("%s/%s: the planted flush-order violation did not fail", tg, s)
		}
		want[sanitizeToken(ScheduleFailure{Target: tg, Schedule: s.String()}.Token())+".flight.txt"] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name()] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forensic dumps %v, want %v", got, want)
	}
}
