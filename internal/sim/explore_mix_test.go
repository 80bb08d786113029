package sim

import (
	"strings"
	"testing"
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
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			stride := sweepStride(t, 5)
			for _, mix := range sweepMixes(t) {
				sweep(t, Target{Config: cfg, Mix: mix}, stride)
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
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			stride := sweepStride(t, 11)
			for _, mix := range sweepMixes(t) {
				sweep(t, Target{Config: cfg, Mix: mix, Ship: true}, stride)
			}
		})
	}
}

// TestMixFailureRepro pins the repro line: for every schedule kind the
// explorer runs, on the flat script and on a mix, a failure's command must
// name the replay test of its kind and quote a token that parses back to
// the same target and schedule.
func TestMixFailureRepro(t *testing.T) {
	cfg, _ := LookupConfig("physio-vSI")
	for _, ship := range []bool{false, true} {
		for _, mix := range []string{"", "write-burst", "lookup=40,scan=10,insert=30,update=10,delete=10"} {
			tg := Target{Config: cfg, Mix: mix, Ship: ship}
			// One boundary of every channel: every schedule kind the
			// sweep runs, after the counting run.
			scheds := append([]schedule{{kind: "count"}},
				tg.schedules(Boundaries{WAL: 18, Stable: 18, Ship: 18}, Stride{Every: 100, Offset: 17})...)
			if want := map[bool]int{false: 1 + 6 + 2, true: 1 + 2 + 4}[ship]; len(scheds) != want {
				t.Errorf("%s: %d schedule kinds, want %d", tg, len(scheds), want)
			}
			test := map[bool]string{false: "-run TestCrashScheduleReplay ", true: "-run TestShipScheduleReplay "}[ship]
			for _, s := range scheds {
				f := ScheduleFailure{Target: tg, Schedule: s.String()}
				repro := f.Repro()
				if !strings.Contains(repro, test+"-explore.repro '"+f.Token()+"'") {
					t.Errorf("repro %q does not replay %q through %s", repro, f.Token(), test)
				}
				back, bs, err := parseRepro(f.Token())
				if err != nil {
					t.Errorf("parseRepro(%q): %v", f.Token(), err)
					continue
				}
				if back.String() != tg.String() || back.Config.Name != cfg.Name || back.Mix != mix || back.Ship != ship || bs != s {
					t.Errorf("%q parsed back as %s / %+v, want %s / %+v", f.Token(), back, bs, tg, s)
				}
			}
		}
	}
}

// TestMixReplayRoundTrip replays single mix schedules through Replay (the
// target of the repro lines), including a fault-free counting run and one
// injected fault per channel.
func TestMixReplayRoundTrip(t *testing.T) {
	for _, repro := range []string{
		"crash/rW-identity-rSI/write-burst/none",
		"crash/rW-identity-rSI/write-burst/wal@40:crash",
		"crash/rW-identity-rSI/write-burst/wal@25:torn=3",
		"crash/rW-identity-rSI/write-burst/stable@2:crash",
		"ship/rW-identity-rSI/point-lookup-heavy/none",
		"ship/rW-identity-rSI/point-lookup-heavy/primary-crash@2",
		"ship/rW-identity-rSI/point-lookup-heavy/standby-crash@1",
		"ship/rW-identity-rSI/point-lookup-heavy/ship@1:drop",
	} {
		if err := Replay(repro); err != nil {
			t.Errorf("Replay(%q): %v", repro, err)
		}
	}
}
