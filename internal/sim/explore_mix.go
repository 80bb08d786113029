// Scenario-mix exploration: the crash-schedule and ship-schedule explorers
// re-targeted at the recoverable storage domains.  Instead of the flat
// object workload, each schedule drives a leaf-linked B+tree and an LSM
// tree through a named scenario mix (point-lookup-heavy, scan-heavy,
// write-burst, or a custom spec), so the injected faults land inside page
// splits, merges, memtable flushes, and multi-table compactions — the
// logical operations whose read sets span objects the driver later deletes.
// After recovery the usual oracle and explainability checks run, plus a
// domain-level pass: both trees must reopen, satisfy their structural
// invariants, and scan cleanly.
package sim

import (
	"fmt"
	"hash/fnv"

	"logicallog/internal/btree"
	"logicallog/internal/core"
	"logicallog/internal/fault"
	"logicallog/internal/lsm"
	"logicallog/internal/op"
	"logicallog/internal/workload"
)

// Mix-script parameters: small enough to keep the per-config, per-mix
// schedule count CI-sized, large enough that every mix drives page splits,
// memtable flushes, and at least one multi-table compaction.
const (
	mixBootSteps = 16
	mixSteps     = 120
	mixTreeName  = "mx"
	mixTreeOrder = 4
	mixSeedBase  = 0x5ce9a1
)

// mixReadyID marks the instant both domains finished bootstrapping.  Log
// prefixes are what crashes and promotions recover, so if this object
// survived, every bootstrap operation before it did too — the post-recovery
// domain checks key off it to avoid misreading a mid-bootstrap tear (meta
// without root, manifest without memtable) as a structural violation.
const mixReadyID = op.ObjectID("mix/ready")

func mixLSMOptions() lsm.Options { return lsm.Options{FlushThreshold: 6, Fanout: 3} }

// mixSeed derives a per-mix driver seed: the B+tree driver uses it, the
// LSM driver the next integer.  FNV keeps it stable across runs and
// distinct across mixes, which is all determinism needs.
func mixSeed(mixName string) int64 {
	h := fnv.New32a()
	h.Write([]byte(mixName))
	return mixSeedBase + int64(h.Sum32()%100000)*2
}

// registerDomains installs the B+tree and LSM transforms if absent (the
// ship path pre-registers them on a shared primary/standby registry, the
// crash path registers on the engine's fresh one).
func registerDomains(reg *op.Registry) {
	if _, ok := reg.Lookup(btree.FuncInsertLeaf); !ok {
		btree.Register(reg)
	}
	if _, ok := reg.Lookup(lsm.FuncMemPut); !ok {
		lsm.Register(reg)
	}
}

// NewDomainRegistry returns a transform registry with both storage domains
// pre-registered.  llrun -scenario installs it on the primary's options so
// a -standby engine shares the domain FuncIDs before any record arrives.
func NewDomainRegistry() *op.Registry {
	reg := op.NewRegistry()
	registerDomains(reg)
	return reg
}

// withDomainRegistry returns cfg with a pre-registered transform registry,
// shared by every engine the schedule builds — the ship standby must be
// able to resolve domain FuncIDs before the primary's script ever runs.
func withDomainRegistry(cfg NamedConfig) NamedConfig {
	cfg.Opts.Registry = NewDomainRegistry()
	return cfg
}

// driveMix drives a leaf-linked B+tree (driver seed seed) and an LSM tree
// (seed+1) on eng through mix.  A bootstrap phase populates both, writes
// the ready marker, then flushes and checkpoints so the initial domain
// state exists only in the stable database; if rec is non-nil it records
// that stable snapshot.  Then steps interleaved driver steps run, each
// preceded by the periodic schedule: forces, minimal installs,
// non-truncating checkpoints, and full purges, every one whose period
// matches.  before (may be nil) runs ahead of each step's schedule; check
// (may be nil) runs after each domain step.  The tail is not forced.
func driveMix(eng *core.Engine, mix workload.Mix, seed int64, steps int, rec *runRecorder,
	before func(step int) error, check func(*core.Engine) error) error {
	registerDomains(eng.Registry())
	tree, err := btree.New(eng, mixTreeName, mixTreeOrder)
	if err != nil {
		return fmt.Errorf("btree new: %w", err)
	}
	kv, err := lsm.New(eng, mixTreeName, mixLSMOptions())
	if err != nil {
		return fmt.Errorf("lsm new: %w", err)
	}
	btDrv, err := workload.NewMixDriver(mix, seed)
	if err != nil {
		return fmt.Errorf("btree driver: %w", err)
	}
	lsmDrv, err := workload.NewMixDriver(mix, seed+1)
	if err != nil {
		return fmt.Errorf("lsm driver: %w", err)
	}

	if err := btDrv.Steps(tree, mixBootSteps); err != nil {
		return fmt.Errorf("btree bootstrap: %w", err)
	}
	if err := lsmDrv.Steps(kv, mixBootSteps); err != nil {
		return fmt.Errorf("lsm bootstrap: %w", err)
	}
	if err := eng.Execute(op.NewCreate(mixReadyID, []byte{1})); err != nil {
		return fmt.Errorf("ready marker: %w", err)
	}
	if err := eng.FlushAll(); err != nil {
		return fmt.Errorf("base flush: %w", err)
	}
	if err := eng.Checkpoint(); err != nil {
		return fmt.Errorf("base checkpoint: %w", err)
	}
	if rec != nil {
		initial := make(map[op.ObjectID][]byte)
		for id, v := range eng.Store().Snapshot() {
			initial[id] = append([]byte(nil), v.Val...)
		}
		rec.initial = initial
	}

	for step := 0; step < steps; step++ {
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
		if step%17 == 11 {
			if err := eng.CheckpointOnly(); err != nil {
				return fmt.Errorf("checkpoint at step %d: %w", step, err)
			}
		}
		if step%23 == 19 {
			if err := eng.FlushAll(); err != nil {
				return fmt.Errorf("purge at step %d: %w", step, err)
			}
		}
		if err := btDrv.Step(tree); err != nil {
			return fmt.Errorf("btree step %d: %w", step, err)
		}
		if check != nil {
			if err := check(eng); err != nil {
				return fmt.Errorf("after btree step %d: %w", step, err)
			}
		}
		if err := lsmDrv.Step(kv); err != nil {
			return fmt.Errorf("lsm step %d: %w", step, err)
		}
		if check != nil {
			if err := check(eng); err != nil {
				return fmt.Errorf("after lsm step %d: %w", step, err)
			}
		}
	}
	return nil
}

// mixExploreScript returns the pre-crash script driving both domains
// through the mix: driveMix under the rogue hook with the write graph
// checked after every domain step, then a final force.
func mixExploreScript(mix workload.Mix) exploreScript {
	return func(eng *core.Engine, rec *runRecorder, rogue RogueHook) error {
		var before func(int) error
		if rogue != nil {
			before = func(step int) error { return rogue(step, eng) }
		}
		if err := driveMix(eng, mix, mixSeed(mix.Name), mixSteps, rec, before, checkWriteGraph); err != nil {
			return err
		}
		if err := eng.Log().Force(); err != nil {
			return fmt.Errorf("final force: %w", err)
		}
		return nil
	}
}

// VerifyMixDomains is the post-recovery domain pass: if the bootstrap
// marker survived (so both domains are fully present in the recovered
// prefix), reopen each, check its structural invariants, and scan it end
// to end.  It runs after oracle verification, so a failure here means the
// recovered object values are right but the domain built atop them is not
// — a torn leaf chain, a manifest naming a lost table.  The check never
// mutates state: the post-check flush re-verification still sees the
// recovered image.  llrun -scenario runs it on a recovered or promoted
// engine.
func VerifyMixDomains(eng *core.Engine) error {
	if _, err := eng.Get(mixReadyID); err != nil {
		return nil // crashed mid-bootstrap; no complete domain to check
	}
	tree, err := btree.Open(eng, mixTreeName)
	if err != nil {
		return fmt.Errorf("recovered btree open: %w", err)
	}
	if err := tree.Check(); err != nil {
		return fmt.Errorf("recovered btree: %w", err)
	}
	if err := tree.Scan(func(k, v []byte) bool { return true }); err != nil {
		return fmt.Errorf("recovered btree scan: %w", err)
	}
	kv, err := lsm.Open(eng, mixTreeName, mixLSMOptions())
	if err != nil {
		return fmt.Errorf("recovered lsm open: %w", err)
	}
	if err := kv.Check(); err != nil {
		return fmt.Errorf("recovered lsm: %w", err)
	}
	if err := kv.Range(nil, nil, func(k, v []byte) bool { return true }); err != nil {
		return fmt.Errorf("recovered lsm scan: %w", err)
	}
	return nil
}

// DriveMixWorkload is the llrun -scenario entry point: driveMix over the
// named scenario mix, with hook (may be nil) ahead of every step — llrun's
// standby pump.  Like DriveWorkload, it does not force the tail: a crash
// afterwards loses unforced steps.  VerifyMixDomains checks the recovered
// state.
func DriveMixWorkload(eng *core.Engine, mixName string, seed int64, steps int, hook func(step int) error) error {
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return err
	}
	return driveMix(eng, mix, seed, steps, nil, hook, nil)
}

// ExploreMix runs the crash-schedule exploration with a scenario mix
// driving the B+tree and LSM domains.  mixName is a built-in mix name or a
// custom spec (see workload.ParseMix).
func ExploreMix(cfg NamedConfig, mixName string, stride Stride) (*ExploreReport, error) {
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errHarness, err)
	}
	return exploreWith(cfg, stride, nil, mixName, mixExploreScript(mix), VerifyMixDomains)
}

// ReplayMixSchedule re-runs one mix crash schedule from its repro token.
func ReplayMixSchedule(configName, mixName, token string) error {
	cfg, ok := LookupConfig(configName)
	if !ok {
		return fmt.Errorf("sim: unknown explorer config %q", configName)
	}
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return err
	}
	pts, err := fault.ParseToken(token)
	if err != nil {
		return err
	}
	return runScheduleWith(cfg, fault.NewPlan(pts...), nil, mixExploreScript(mix), VerifyMixDomains)
}

// ExploreShipMix runs the ship-schedule exploration with a scenario mix
// driving the primary's domains.  The promoted standby gets the same
// domain-level checks as the crash explorer.
func ExploreShipMix(cfg NamedConfig, mixName string, stride Stride) (*ShipExploreReport, error) {
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errHarness, err)
	}
	return exploreShipWith(withDomainRegistry(cfg), stride, mixName, mixExploreScript(mix), VerifyMixDomains)
}

// ReplayShipMixSchedule re-runs one mix ship schedule from its repro text.
func ReplayShipMixSchedule(configName, mixName, schedule string) error {
	cfg, ok := LookupConfig(configName)
	if !ok {
		return fmt.Errorf("sim: unknown explorer config %q", configName)
	}
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return err
	}
	sched, err := parseShipSchedule(schedule)
	if err != nil {
		return err
	}
	_, err = runShipScheduleWith(withDomainRegistry(cfg), sched, mixExploreScript(mix), VerifyMixDomains)
	return err
}
