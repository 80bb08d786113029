package harness

import (
	"fmt"

	"logicallog/internal/btree"
	"logicallog/internal/core"
	"logicallog/internal/lsm"
	"logicallog/internal/workload"
)

// E13 domain-workload parameters.  The step count is enough for every mix
// to split B+tree pages, flush LSM memtables, and trigger at least one
// multi-table compaction; the seed pins the operation stream so the table
// shape is reproducible.
const (
	e13Steps      = 240
	e13Seed       = 0xd0a1
	e13TreeOrder  = 4
	e13FlushAt    = 6
	e13Fanout     = 3
	e13DomainName = "e13"
)

// DefaultMixes, when non-empty, restricts the scenario mixes E13 sweeps
// (llbench -mix).  Names are resolved by workload.ParseMix.
var DefaultMixes []string

func e13Mixes() []string {
	if len(DefaultMixes) > 0 {
		return DefaultMixes
	}
	return workload.MixNames()
}

// e13Run drives one (mix, domain) pair on a fresh engine with the given
// options: scenario-mix steps interleaved with forces, minimal installs,
// and purges, then a forced crash, recovery, a structural check, and an
// exact model comparison.  It returns the log bytes appended before the
// crash, the redo count, and the surviving key count.
func e13Run(opts core.Options, mixName, domain string) (logBytes, valueBytes, redone int64, keys int, err error) {
	mix, err := workload.ParseMix(mixName)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	eng, err := core.New(opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var dom workload.Domain
	switch domain {
	case "btree":
		btree.Register(eng.Registry())
		dom, err = btree.New(eng, e13DomainName, e13TreeOrder)
	case "lsm":
		lsm.Register(eng.Registry())
		dom, err = lsm.New(eng, e13DomainName, lsm.Options{FlushThreshold: e13FlushAt, Fanout: e13Fanout})
	default:
		err = fmt.Errorf("harness: E13: unknown domain %q", domain)
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}
	drv, err := workload.NewMixDriver(mix, e13Seed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for step := 0; step < e13Steps; step++ {
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
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("harness: E13: %s/%s step %d: %w", mixName, domain, step, err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		return 0, 0, 0, 0, err
	}
	st := eng.Stats()
	logBytes, valueBytes = st.Log.BytesAppended, st.Log.ValueBytes

	eng.Crash()
	res, err := eng.Recover()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("harness: E13: %s/%s recovery: %w", mixName, domain, err)
	}
	switch domain {
	case "btree":
		dom, err = btree.Open(eng, e13DomainName)
	case "lsm":
		dom, err = lsm.Open(eng, e13DomainName, lsm.Options{FlushThreshold: e13FlushAt, Fanout: e13Fanout})
	}
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("harness: E13: %s/%s reopen: %w", mixName, domain, err)
	}
	// Everything was forced, so the recovered domain must equal the model
	// exactly — a structural or content divergence fails the experiment.
	if err := drv.Verify(dom); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("harness: E13: %s/%s recovered mismatch: %w", mixName, domain, err)
	}
	return logBytes, valueBytes, int64(res.Redone), drv.ModelSize(), nil
}

// E13DomainMixes measures logical logging on the recoverable storage
// domains: every scenario mix drives a leaf-linked B+tree and an LSM tree
// on the recommended logical configuration and on the physiological
// baseline, comparing log volume for identical operation streams.  Each
// run ends in a forced crash whose recovery must reproduce the driver's
// model exactly, so the table doubles as an end-to-end domain recovery
// check.
func E13DomainMixes() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "recoverable domains under scenario mixes: logical vs physiological log bytes",
		Paper:   "Section 1 motivation, Section 6 new domains (B-tree splits, multi-page reorganizations)",
		Columns: []string{"mix", "domain", "logical bytes", "physio bytes", "ratio", "redone", "keys"},
	}
	physio := core.DefaultOptions()
	physio.Physiological = true
	for _, mixName := range e13Mixes() {
		for _, domain := range []string{"btree", "lsm"} {
			lb, _, redone, keys, err := e13Run(core.DefaultOptions(), mixName, domain)
			if err != nil {
				return nil, err
			}
			pb, _, _, _, err := e13Run(physio, mixName, domain)
			if err != nil {
				return nil, err
			}
			t.AddRow(mixName, domain, lb, pb, float64(pb)/float64(lb), redone, keys)
		}
	}
	t.Notes = append(t.Notes,
		"identical operation streams: each row's logical and physiological runs replay the same seeded mix",
		"logical records name transforms and read sets, so splits, merges, flushes, and compactions log no page images",
		"every run crashes after a final force and recovery must reproduce the driver's model exactly",
	)
	return t, nil
}
