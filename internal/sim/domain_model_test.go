package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logicallog/internal/btree"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/forensics"
	"logicallog/internal/lsm"
	"logicallog/internal/obs/flight"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
)

// Differential model checking of the recoverable domains: one seeded
// scenario-mix operation stream drives a domain (B+tree or LSM tree) and the
// MixDriver's in-memory model in lockstep, on every engine configuration.
// Each run is cut by an injected fault from a repro-style token, crashed,
// and recovered; the engine must still match the history oracle, the
// reopened domain must pass its structural checks, and — after re-syncing
// the model to the recovered prefix — the stream continues and a final
// forced crash must recover contents exactly equal to the model.
const (
	modelStepsBefore = 80
	modelStepsAfter  = 40
	modelSeedBase    = 0xd1ff
)

// modelTokens are the per-seed fault plans: one WAL power cut, one torn
// WAL append, one stable-store power cut mid-install.  Indexes are small
// enough that every token fires well inside modelStepsBefore steps under
// the drive cadence below.
var modelTokens = []string{"wal@9:crash", "wal@13:torn=3", "stable@5:crash"}

// modelDomains enumerates the engine-object domains under differential
// test.  fresh builds the domain on an empty engine; open reattaches to
// recovered state.
var modelDomains = []struct {
	name  string
	fresh func(eng *core.Engine) (workload.Domain, error)
	open  func(eng *core.Engine) (workload.Domain, error)
}{
	{
		name:  "btree",
		fresh: func(eng *core.Engine) (workload.Domain, error) { return btree.New(eng, mixTreeName, mixTreeOrder) },
		open:  func(eng *core.Engine) (workload.Domain, error) { return btree.Open(eng, mixTreeName) },
	},
	{
		name:  "lsm",
		fresh: func(eng *core.Engine) (workload.Domain, error) { return lsm.New(eng, mixTreeName, mixLSMOptions()) },
		open:  func(eng *core.Engine) (workload.Domain, error) { return lsm.Open(eng, mixTreeName, mixLSMOptions()) },
	},
}

func injected(err error) bool {
	return errors.Is(err, fault.ErrInjected) || wal.IsTransient(err)
}

// driveModel interleaves driver steps with the engine's force/install/purge
// cadence until n steps ran or an injected fault surfaced.  It returns
// whether the fault cut the run short; any other error fails the test.
func driveModel(t *testing.T, eng *core.Engine, drv *workload.MixDriver, dom workload.Domain, n int) bool {
	t.Helper()
	for step := 0; step < n; step++ {
		var err error
		switch {
		case step%3 == 1:
			err = eng.Log().Force()
		case step%4 == 2:
			err = eng.InstallOne()
		case step%23 == 19:
			err = eng.FlushAll()
		}
		if err == nil {
			err = drv.Step(dom)
		}
		if err == nil {
			err = checkWriteGraph(eng)
		}
		if err != nil {
			if injected(err) {
				return true
			}
			t.Fatalf("step %d: %v", step, err)
		}
	}
	return false
}

func TestDomainModelDifferential(t *testing.T) {
	t.Parallel()
	for _, cfg := range ExplorerConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for _, dc := range modelDomains {
				for _, seed := range seeds(t, 1, 4) {
					dc, seed := dc, seed
					t.Run(fmt.Sprintf("%s/seed%d", dc.name, seed), func(t *testing.T) {
						runDomainModel(t, cfg, dc.fresh, dc.open, seed)
					})
				}
			}
		})
	}
}

// modelForensics renders the decision chain behind a model divergence: the
// flight-recorded redo decisions for every logged record whose payload
// carries the divergent key's bytes (the pages or runs holding that key),
// followed by the tail of the flight dump.  Best effort — a key that never
// appears literally in a payload still gets the dump.
func modelForensics(eng *core.Engine, fl *flight.Recorder, verifyErr error) string {
	events := fl.Events()
	var b strings.Builder
	if key := divergentKey(verifyErr); key != "" {
		recs, err := forensics.ScanAll(eng.Log(), eng.Log().FirstLSN())
		if err == nil {
			explained := 0
			for _, rec := range recs {
				if rec.Type != wal.RecOperation || explained >= 8 {
					continue
				}
				hit := false
				for _, v := range rec.Op.Values {
					if bytes.Contains(v, []byte(key)) {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				if x, xerr := forensics.Explain(recs, events, rec.LSN); xerr == nil {
					b.WriteString(x.String())
					explained++
				}
			}
			if explained > 0 {
				b.WriteString(fmt.Sprintf("(decision chain for records carrying divergent key %q)\n", key))
			}
		}
	}
	b.WriteString(forensics.Dump(events, 24))
	return b.String()
}

// divergentKey extracts the key named by a MixDriver.Verify failure
// ("workload: domain has unexpected key K" / "workload: domain K = ..,
// model says ..").
func divergentKey(err error) string {
	msg := err.Error()
	if _, rest, ok := strings.Cut(msg, "unexpected key "); ok {
		return strings.TrimSpace(rest)
	}
	if _, rest, ok := strings.Cut(msg, "workload: domain "); ok {
		if key, _, ok := strings.Cut(rest, " = "); ok {
			return strings.TrimSpace(key)
		}
	}
	return ""
}

func runDomainModel(t *testing.T, cfg NamedConfig,
	fresh, open func(*core.Engine) (workload.Domain, error), seed int64) {
	t.Helper()
	mixes := workload.MixNames()
	mix, err := workload.ParseMix(mixes[int(seed)%len(mixes)])
	if err != nil {
		t.Fatal(err)
	}
	token := modelTokens[int(seed)%len(modelTokens)]
	pts, err := fault.ParseToken(token)
	if err != nil {
		t.Fatalf("token %q: %v", token, err)
	}
	plan := fault.NewPlan(pts...)

	fl := flight.NewRecorder(1 << 10)
	opts := cfg.Opts
	opts.LogDevice = plan.WrapDevice(wal.NewMemDevice())
	opts.Flight = fl
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Store().SetWriteProbe(plan.StableProbe())
	registerDomains(eng.Registry())

	dom, err := fresh(eng)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := workload.NewMixDriver(mix, modelSeedBase+seed)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: drive into the armed fault, then crash and recover.
	cut := driveModel(t, eng, drv, dom, modelStepsBefore)
	if !cut {
		t.Fatalf("token %q never fired in %d steps (mix %s): unfired %v",
			token, modelStepsBefore, mix.Name, plan.Unfired())
	}
	eng.Crash()
	plan.Heal()
	if _, err := eng.Recover(); err != nil {
		t.Fatalf("recover after %q: %v", token, err)
	}
	if err := VerifyAgainstOracle(eng, eng.Log().StableLSN()); err != nil {
		t.Fatalf("oracle after %q: %v", token, err)
	}

	// Phase 2: the recovered domain must reopen and pass its structural
	// checks; the model re-syncs to the recovered (log-prefix) contents.
	dom, err = open(eng)
	if err != nil {
		t.Fatalf("reopen after %q: %v", token, err)
	}
	if err := dom.Check(); err != nil {
		t.Fatalf("recovered domain after %q: %v", token, err)
	}
	if err := drv.Adopt(dom); err != nil {
		t.Fatal(err)
	}
	if err := drv.Verify(dom); err != nil {
		t.Fatalf("post-adopt verify: %v\n%s", err, modelForensics(eng, fl, err))
	}

	// Phase 3: the recovered domain must remain fully usable — continue the
	// stream, force everything, and a clean crash must recover contents
	// exactly equal to the model.
	if cut := driveModel(t, eng, drv, dom, modelStepsAfter); cut {
		t.Fatalf("fault fired again after heal")
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	dom, err = open(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Verify(dom); err != nil {
		t.Fatalf("forced prefix did not recover exactly: %v\n%s", err, modelForensics(eng, fl, err))
	}
}
