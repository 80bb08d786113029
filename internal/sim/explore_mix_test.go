package sim

import (
	"flag"
	"strings"
	"testing"
)

var (
	faultMixFlag = flag.String("fault.mix", "", "scenario mix for TestCrashScheduleReplay (empty = default script)")
	shipMixFlag  = flag.String("ship.mix", "", "scenario mix for TestShipScheduleReplay (empty = default script)")
)

// TestMixScheduleExplorer sweeps the crash-schedule space with the scenario
// mixes driving the B+tree and LSM domains, for every engine configuration;
// the three built-in mixes stress different domain paths (splits and merges
// vs flushes and compactions vs leaf-chain scans), and the exhaustive sweep
// drives all three.  Beyond the oracle and explainability checks, every
// recovered state must reopen both domains, pass their structural invariant
// checks, and scan cleanly end to end.
func TestMixScheduleExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			stride := sweepStride(t, 5)
			for _, mixName := range sweepMixes(t) {
				rep, err := ExploreMix(cfg, mixName, stride)
				if err != nil {
					t.Fatalf("%s: harness: %v", mixName, err)
				}
				total := rep.WALBoundaries + rep.StableBoundaries
				if total <= 100 {
					t.Errorf("%s: only %d I/O boundaries (%d WAL + %d stable); the mix no longer exercises the fault space",
						mixName, total, rep.WALBoundaries, rep.StableBoundaries)
				}
				t.Logf("%s/%s: %d schedules over %d WAL + %d stable boundaries",
					cfg.Name, mixName, rep.Schedules, rep.WALBoundaries, rep.StableBoundaries)
				for _, f := range rep.Failures {
					t.Errorf("schedule failed: %v", f)
				}
			}
		})
	}
}

// TestShipMixScheduleExplorer sweeps the ship-schedule space with the
// scenario mixes on the primary: machine crashes and wire faults at
// shipped-batch boundaries, then domain-level checks on the promoted
// standby.
func TestShipMixScheduleExplorer(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			stride := sweepStride(t, 11)
			for _, mixName := range sweepMixes(t) {
				rep, err := ExploreShipMix(cfg, mixName, stride)
				if err != nil {
					t.Fatalf("%s: harness: %v", mixName, err)
				}
				t.Logf("%s/%s: %d batch boundaries, %d schedules", cfg.Name, mixName, rep.Boundaries, rep.Schedules)
				if rep.Boundaries < 20 {
					t.Errorf("%s: only %d batch boundaries — the mix should ship far more", mixName, rep.Boundaries)
				}
				for _, f := range rep.Failures {
					t.Errorf("%s", f)
				}
			}
		})
	}
}

// TestMixFailureRepro pins the repro-line format: a mix failure's command
// must name the mix so the replay test reconstructs the same schedule.
func TestMixFailureRepro(t *testing.T) {
	f := ScheduleFailure{Config: "rW-identity-rSI", Mix: "write-burst", Token: "wal@3:torn=3"}
	for _, want := range []string{"-fault.config", "-fault.mix", "-fault.token", "write-burst", "wal@3:torn=3"} {
		if !strings.Contains(f.Repro(), want) {
			t.Errorf("crash repro %q lacks %q", f.Repro(), want)
		}
	}
	sf := ShipScheduleFailure{Config: "physio-vSI", Mix: "scan-heavy", Schedule: "primary-crash@4"}
	for _, want := range []string{"-ship.config", "-ship.mix", "-ship.schedule", "scan-heavy", "primary-crash@4"} {
		if !strings.Contains(sf.Repro(), want) {
			t.Errorf("ship repro %q lacks %q", sf.Repro(), want)
		}
	}
	// Default-script failures keep the old two-flag form.
	plain := ScheduleFailure{Config: "rW-identity-rSI", Token: "wal@3:crash"}
	if strings.Contains(plain.Repro(), "-fault.mix") {
		t.Errorf("default-script repro %q names a mix", plain.Repro())
	}
}

// TestMixReplayRoundTrip replays single mix schedules through the public
// replay entry points (the targets of the repro lines), including a
// fault-free counting run and one injected fault per channel.
func TestMixReplayRoundTrip(t *testing.T) {
	for _, token := range []string{"", "wal@40:crash", "wal@25:torn=3", "stable@2:crash"} {
		if err := ReplayMixSchedule("rW-identity-rSI", "write-burst", token); err != nil {
			t.Errorf("ReplayMixSchedule(%q): %v", token, err)
		}
	}
	for _, sched := range []string{"none", "primary-crash@2", "standby-crash@1", "ship@1:drop"} {
		if err := ReplayShipMixSchedule("rW-identity-rSI", "point-lookup-heavy", sched); err != nil {
			t.Errorf("ReplayShipMixSchedule(%q): %v", sched, err)
		}
	}
}
