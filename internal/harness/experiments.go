package harness

import (
	"fmt"

	"logicallog/internal/apprec"
	"logicallog/internal/btree"
	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/fsim"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/sim"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

func logicalOpts() core.Options { return core.DefaultOptions() }

func physioOpts() core.Options {
	o := core.DefaultOptions()
	o.Physiological = true
	o.RedoTest = recovery.TestVSI
	return o
}

// E1LogBytes reproduces Figure 1: the per-operation logging cost of the
// A-form (Y <- f(X,Y)) and B-form (X <- g(Y)) operations under logical vs
// physiological logging, across object sizes.  Logical cost is O(ids);
// physiological cost is O(object size).
func E1LogBytes() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "log bytes per A-form + B-form operation pair",
		Paper:   "Figure 1 (a) vs (b)",
		Columns: []string{"object size", "logical bytes", "physiological bytes", "ratio"},
	}
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		logical, err := e1Pair(logicalOpts(), size)
		if err != nil {
			return nil, err
		}
		physio, err := e1Pair(physioOpts(), size)
		if err != nil {
			return nil, err
		}
		t.AddRow(byteSize(size), logical, physio, float64(physio)/float64(logical))
	}
	t.Notes = append(t.Notes,
		"logical cost is flat (ids + function names only); physiological cost grows linearly with the object size",
	)
	return t, nil
}

func e1Pair(opts core.Options, size int) (int64, error) {
	eng, err := core.New(opts)
	if err != nil {
		return 0, err
	}
	v := make([]byte, size)
	if err := eng.Execute(op.NewCreate("X", v)); err != nil {
		return 0, err
	}
	if err := eng.Execute(op.NewCreate("Y", v)); err != nil {
		return 0, err
	}
	eng.ResetStats()
	// A: Y <- f(X,Y); B: X <- g(Y).
	a := op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
		[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})
	b := op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"})
	if err := eng.Execute(a); err != nil {
		return 0, err
	}
	if err := eng.Execute(b); err != nil {
		return 0, err
	}
	return eng.Log().Stats().TotalOpPayloadBytes(), nil
}

// E2Recovery reproduces Figure 2 / Theorem 2: recovery recovers explainable
// states and is idempotent, across the configuration matrix.
func E2Recovery() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "crash-recovery correctness across configurations (40 random crashes each)",
		Paper:   "Figure 2 (Recover), Theorems 1-2",
		Columns: []string{"configuration", "crashes", "verified", "idempotent"},
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"rW + identity writes + rSI", logicalOpts()},
		{"rW + shadow + rSI", func() core.Options {
			o := logicalOpts()
			o.Strategy = cache.StrategyShadow
			return o
		}()},
		{"rW + flush-txn + vSI", func() core.Options {
			o := logicalOpts()
			o.Strategy = cache.StrategyFlushTxn
			o.RedoTest = recovery.TestVSI
			return o
		}()},
		{"W + shadow + vSI", func() core.Options {
			o := logicalOpts()
			o.Policy = writegraph.PolicyW
			o.Strategy = cache.StrategyShadow
			o.RedoTest = recovery.TestVSI
			return o
		}()},
		{"physiological + vSI", physioOpts()},
	}
	for _, cfg := range configs {
		const crashes = 40
		ok := 0
		for seed := int64(1); seed <= crashes; seed++ {
			if err := sim.CrashTest(cfg.opts, sim.DefaultScenario(seed)); err != nil {
				return nil, fmt.Errorf("E2 %s seed %d: %w", cfg.name, seed, err)
			}
			ok++
		}
		t.AddRow(cfg.name, crashes, ok, "yes")
	}
	t.Notes = append(t.Notes, "every crash is recovered twice (idempotence check) and compared against a pure re-execution oracle")
	return t, nil
}

// E3FlushSets reproduces the Figures 3/4/7 claim: W coalesces objects into
// growing atomic flush sets while rW keeps them small, increasingly so as
// blind (B-form) writes make objects unexposed.
func E3FlushSets() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "atomic flush-set sizes under W vs rW (8 objects, 200 logical ops)",
		Paper:   "Figures 3, 4, 7",
		Columns: []string{"B-form pct", "W max |vars|", "W mean |vars|", "rW max |vars|", "rW mean |vars|"},
	}
	for _, blindPct := range []int{0, 20, 40, 60} {
		spec := workload.DefaultSpec(33)
		spec.LogicalAPct = 40
		spec.LogicalBPct = blindPct
		spec.PhysioPct = 0
		spec.DeletePct = 0
		gen, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		stream := workload.WithLSNs(gen.Stream())
		wMax, wMean, err := flushSetStats(writegraph.PolicyW, stream)
		if err != nil {
			return nil, err
		}
		rMax, rMean, err := flushSetStats(writegraph.PolicyRW, stream)
		if err != nil {
			return nil, err
		}
		t.AddRow(blindPct, wMax, wMean, rMax, rMean)
	}
	t.Notes = append(t.Notes,
		"rW flush sets never exceed W's; blind writes shrink rW sets (unexposed objects leave vars) while W sets only grow",
	)
	return t, nil
}

func flushSetStats(policy writegraph.Policy, stream []*op.Operation) (int, float64, error) {
	wg := writegraph.New(policy)
	for _, o := range stream {
		if _, err := wg.AddOp(o.Clone()); err != nil {
			return 0, 0, err
		}
	}
	sizes := wg.FlushSetSizes()
	max, sum := 0, 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
		sum += s
	}
	mean := 0.0
	if len(sizes) > 0 {
		mean = float64(sum) / float64(len(sizes))
	}
	return max, mean, nil
}

// E4Refinement replays the paper's literal examples (Figure 5's A;B;C and
// Figure 7's blind rewrite) and reports the flush behaviour of W vs rW.
func E4Refinement() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "the paper's own examples: nodes and flush sets",
		Paper:   "Figure 5, Figure 7, Section 4 example",
		Columns: []string{"example", "graph", "nodes", "largest flush set", "atomic multi-flush needed"},
	}
	examples := []struct {
		name string
		ops  []*op.Operation
	}{
		{"Fig5/Sec4: a)Y=f(X,Y) b)X=g(Y) c)Y=h(Y)", []*op.Operation{
			op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")), []op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"}),
			op.NewLogical(op.FuncCopy, []byte("X"), []op.ObjectID{"Y"}, []op.ObjectID{"X"}),
			op.NewPhysioWrite("Y", op.FuncAppend, []byte{1}),
		}},
		{"Fig7: A writes {X,Y}; B reads X; C blind-writes X", []*op.Operation{
			{Kind: op.KindPhysicalWrite, WriteSet: []op.ObjectID{"X", "Y"},
				Values: [][]byte{{1}, {2}}},
			op.NewLogical(op.FuncCopy, []byte("Z"), []op.ObjectID{"X"}, []op.ObjectID{"Z"}),
			op.NewPhysicalWrite("X", []byte{3}),
		}},
	}
	for _, ex := range examples {
		for _, policy := range []writegraph.Policy{writegraph.PolicyW, writegraph.PolicyRW} {
			wg := writegraph.New(policy)
			for i, o := range ex.ops {
				c := o.Clone()
				c.LSN = op.SI(i + 1)
				if _, err := wg.AddOp(c); err != nil {
					return nil, err
				}
			}
			sizes := wg.FlushSetSizes()
			max := 0
			for _, s := range sizes {
				if s > max {
					max = s
				}
			}
			multi := "no"
			if max > 1 {
				multi = "yes"
			}
			t.AddRow(ex.name, policy.String(), wg.Len(), max, multi)
		}
	}
	t.Notes = append(t.Notes,
		"Figure 7 under rW: the blind rewrite removes X from A's flush set; every node flushes one object",
		"the Section 4 cycle still collapses under rW — which is exactly what identity writes (E5) then break apart",
	)
	return t, nil
}

// E5FlushMechanisms reproduces the Section 4 cost comparison: breaking up a
// size-k atomic flush set with CM identity writes vs flushing it atomically
// with a flush transaction or shadows.
func E5FlushMechanisms() (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "multi-object flush-set handling: I/O and log cost (value size 4 KiB)",
		Paper: "Section 4 (Cache Manager Initiated Writes, Atomic Flush, Comparing Costs)",
		Columns: []string{"set size k", "mechanism", "object writes", "extra log bytes",
			"flush-txn log writes", "pointer swings"},
	}
	const valueSize = 4096
	for _, k := range []int{2, 4, 8, 16} {
		for _, strat := range []cache.FlushStrategy{cache.StrategyIdentityWrite, cache.StrategyFlushTxn, cache.StrategyShadow} {
			opts := logicalOpts()
			opts.Strategy = strat
			eng, err := core.New(opts)
			if err != nil {
				return nil, err
			}
			if err := buildAtomicSet(eng, k, valueSize); err != nil {
				return nil, err
			}
			eng.ResetStats()
			if err := eng.FlushAll(); err != nil {
				return nil, err
			}
			io := eng.Store().Stats()
			lg := eng.Log().Stats()
			t.AddRow(k, strat.String(), io.ObjectWrites, lg.ValueBytes,
				io.FlushTxnLogWrites, io.PointerSwings)
		}
	}
	t.Notes = append(t.Notes,
		"identity writes log k-1 object values and write each object once; no quiesce, no pointer swing",
		"a flush transaction logs all k values plus a commit and writes every object twice (log + in place)",
		"shadows avoid the value logging but need shadow writes plus an atomic pointer swing (and, in real systems, relocate data)",
	)
	return t, nil
}

// buildAtomicSet drives operations that collapse into one rW node with a
// k-object flush set: a chain of A-form reads followed by B-form writes that
// closes a cycle across k objects.
func buildAtomicSet(eng *core.Engine, k, valueSize int) error {
	ids := make([]op.ObjectID, k)
	v := make([]byte, valueSize)
	for i := range ids {
		ids[i] = op.ObjectID(fmt.Sprintf("s%02d", i))
		if err := eng.Execute(op.NewCreate(ids[i], v)); err != nil {
			return err
		}
	}
	if err := eng.FlushAll(); err != nil {
		return err
	}
	// Ring of A-form ops: ids[i+1] <- f(ids[i], ids[i+1]) ... then close the
	// ring so the whole set collapses into one node.
	for round := 0; round < 2; round++ {
		for i := 0; i < k; i++ {
			x, y := ids[i], ids[(i+1)%k]
			o := op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
				[]op.ObjectID{x, y}, []op.ObjectID{y})
			if err := eng.Execute(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// E6RedoTests reproduces the Section 5 claim: the generalized rSI REDO test
// re-executes fewer operations than the traditional vSI test, especially
// with transient (deleted) objects, without hurting correctness.
func E6RedoTests() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "redo-pass work by REDO test (200-op workloads, crash, recover)",
		Paper:   "Section 5 (Recovery REDO Tests, Generalized Recovery SIs)",
		Columns: []string{"delete pct", "test", "ops scanned", "redone", "skipped installed", "skipped unexposed"},
	}
	for _, delPct := range []int{0, 20, 40} {
		for _, test := range []recovery.RedoTest{recovery.TestVSI, recovery.TestRSI} {
			opts := logicalOpts()
			opts.RedoTest = test
			eng, err := core.New(opts)
			if err != nil {
				return nil, err
			}
			spec := workload.DefaultSpec(77)
			spec.LogicalAPct, spec.LogicalBPct, spec.PhysioPct = 25, 25, 10
			spec.DeletePct = delPct
			gen, err := workload.NewGenerator(spec)
			if err != nil {
				return nil, err
			}
			for i, o := range gen.Stream() {
				if err := eng.Execute(o); err != nil {
					return nil, err
				}
				if i%9 == 0 {
					if err := eng.InstallOne(); err != nil {
						return nil, err
					}
				}
			}
			if err := eng.Log().Force(); err != nil {
				return nil, err
			}
			eng.Crash()
			res, err := eng.Recover()
			if err != nil {
				return nil, err
			}
			t.AddRow(delPct, test.String(), res.ScannedOps, res.Redone,
				res.SkippedInstalled, res.SkippedUnexposed)
		}
	}
	t.Notes = append(t.Notes,
		"rSI redoes no more than vSI and shortens the scan: unexposed/terminated objects' operations are treated as installed",
	)
	return t, nil
}

// E7AppRecovery reproduces the application-recovery logging comparison: this
// paper (logical R + logical W_L) vs [7] (logical R + physical W_P) vs fully
// physiological, across I/O buffer sizes.
func E7AppRecovery() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "application run logging cost (10 read/exec/write rounds)",
		Paper:   "Table 1 operations; Section 1 Application Recovery; [7] comparison",
		Columns: []string{"buffer size", "this paper (W_L)", "[7] (W_P)", "physiological", "W_L saving vs W_P"},
	}
	for _, size := range []int{1 << 10, 16 << 10, 128 << 10} {
		logical, err := e7Run(logicalOpts(), size, false)
		if err != nil {
			return nil, err
		}
		lomet98, err := e7Run(logicalOpts(), size, true)
		if err != nil {
			return nil, err
		}
		physio, err := e7Run(physioOpts(), size, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(byteSize(size), logical, lomet98, physio,
			fmt.Sprintf("%.1fx", float64(lomet98)/float64(logical)))
	}
	t.Notes = append(t.Notes,
		"W_L logs ids only; W_P logs every output buffer; physiological logging also materializes reads",
	)
	return t, nil
}

func e7Run(opts core.Options, bufSize int, physicalWrites bool) (int64, error) {
	eng, err := core.New(opts)
	if err != nil {
		return 0, err
	}
	apprec.Register(eng.Registry())
	data := make([]byte, bufSize)
	if err := eng.Execute(op.NewCreate("input", data)); err != nil {
		return 0, err
	}
	app, err := apprec.Launch(eng, "app")
	if err != nil {
		return 0, err
	}
	eng.ResetStats()
	for round := 0; round < 10; round++ {
		if err := app.Read("input"); err != nil {
			return 0, err
		}
		if err := app.Step([]byte{byte(round)}); err != nil {
			return 0, err
		}
		target := op.ObjectID(fmt.Sprintf("out%d", round))
		if physicalWrites {
			err = app.WritePhysical(target)
		} else {
			err = app.Write(target)
		}
		if err != nil {
			return 0, err
		}
	}
	return eng.Log().Stats().TotalOpPayloadBytes(), nil
}

// E8FileOps reproduces the file-system example: copy and sort logged
// logically (ids only) vs physiologically (whole file).
func E8FileOps() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "file copy + sort logging cost",
		Paper:   "Section 1 File System Recovery",
		Columns: []string{"file size", "logical bytes", "physiological bytes", "ratio"},
	}
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		logical, err := e8Run(size, false)
		if err != nil {
			return nil, err
		}
		physio, err := e8Run(size, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(byteSize(size), logical, physio, float64(physio)/float64(logical))
	}
	t.Notes = append(t.Notes, "the logical log records name only source and target file ids")
	return t, nil
}

func e8Run(size int, physical bool) (int64, error) {
	eng, err := core.New(logicalOpts())
	if err != nil {
		return 0, err
	}
	fsim.Register(eng.Registry())
	fs := fsim.New(eng, "fs")
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(255 - i%256)
	}
	if err := fs.Create("src", data); err != nil {
		return 0, err
	}
	eng.ResetStats()
	if physical {
		if err := fs.CopyPhysical("copy", "src"); err != nil {
			return 0, err
		}
		if err := fs.SortPhysical("sorted", "src"); err != nil {
			return 0, err
		}
	} else {
		if err := fs.Copy("copy", "src"); err != nil {
			return 0, err
		}
		if err := fs.Sort("sorted", "src"); err != nil {
			return 0, err
		}
	}
	return eng.Log().Stats().TotalOpPayloadBytes(), nil
}

// E9BtreeSplit reproduces the database example: logical page splits avoid
// logging the new node's contents.  After every bulk insert the engine
// crashes and recovers, and the row's scan column counts the keys a
// leaf-chain range scan finds in the recovered tree — the splits under test
// must leave behind a walkable, fully-linked leaf chain.
func E9BtreeSplit() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "B-tree bulk insert logging cost (order 16, 256 inserts)",
		Paper:   "Section 1 Database Recovery (logical B-tree split)",
		Columns: []string{"value size", "logical split bytes", "physiological bytes", "splits", "ratio", "leaf scan after crash"},
	}
	for _, valSize := range []int{256, 1024, 4096} {
		logical, splits, scanned, err := e9Run(logicalOpts(), valSize)
		if err != nil {
			return nil, err
		}
		physio, _, physioScanned, err := e9Run(physioOpts(), valSize)
		if err != nil {
			return nil, err
		}
		if scanned != physioScanned {
			return nil, fmt.Errorf("E9: recovered leaf chains disagree: logical scanned %d, physiological %d", scanned, physioScanned)
		}
		t.AddRow(valSize, logical, physio, splits, float64(physio)/float64(logical), scanned)
	}
	t.Notes = append(t.Notes,
		"both engines log the inserted records; the physiological engine additionally logs every page written by each split",
		"the scan column walks the recovered tree's leaf chain end to end: logical split replay rebuilds the same next-leaf links the physiological engine logged outright",
	)
	return t, nil
}

const e9Inserts = 256

func e9Key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func e9Run(opts core.Options, valSize int) (int64, int, int, error) {
	eng, err := core.New(opts)
	if err != nil {
		return 0, 0, 0, err
	}
	btree.Register(eng.Registry())
	tree, err := btree.New(eng, "t", 16)
	if err != nil {
		return 0, 0, 0, err
	}
	eng.ResetStats()
	val := make([]byte, valSize)
	for i := 0; i < e9Inserts; i++ {
		if err := tree.Insert(e9Key(i), val); err != nil {
			return 0, 0, 0, err
		}
	}
	st, err := tree.Stats()
	if err != nil {
		return 0, 0, 0, err
	}
	logged := eng.Log().Stats().TotalOpPayloadBytes()
	// Crash and recover, then read the tree back through the leaf chain:
	// a full Scan must visit every key in order, and a bounded Range must
	// stop at its half-open upper bound.
	if err := eng.Log().Force(); err != nil {
		return 0, 0, 0, err
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		return 0, 0, 0, err
	}
	scanned := 0
	var scanErr error
	if err := tree.Scan(func(k, v []byte) bool {
		if string(k) != string(e9Key(scanned)) || len(v) != valSize {
			scanErr = fmt.Errorf("leaf chain out of order at %q (position %d)", k, scanned)
			return false
		}
		scanned++
		return true
	}); err != nil {
		return 0, 0, 0, err
	}
	if scanErr != nil {
		return 0, 0, 0, scanErr
	}
	if scanned != e9Inserts {
		return 0, 0, 0, fmt.Errorf("leaf-chain scan found %d keys after recovery, want %d", scanned, e9Inserts)
	}
	ranged := 0
	lo, hi := e9Key(e9Inserts/4), e9Key(3*e9Inserts/4)
	if err := tree.Range(lo, hi, func(k, v []byte) bool { ranged++; return true }); err != nil {
		return 0, 0, 0, err
	}
	if want := e9Inserts / 2; ranged != want {
		return 0, 0, 0, fmt.Errorf("leaf-chain range [%s,%s) found %d keys, want %d", lo, hi, ranged, want)
	}
	return logged, st.Pages - 1, scanned, nil
}

// E10ScanLength reproduces the Section 5 analysis-pass claim: checkpoints
// and installation logging shorten the redo scan.
func E10ScanLength() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "redo scan length vs checkpoint interval (400-op workload)",
		Paper:   "Section 5 (Logging and Recovery using rSIs)",
		Columns: []string{"checkpoint regime", "analyzed records", "ops scanned", "redone"},
	}
	type regime struct {
		interval int
		sharp    bool // flush the cache before checkpointing
	}
	for _, rg := range []regime{{0, false}, {100, false}, {25, false}, {25, true}} {
		interval := rg.interval
		eng, err := core.New(logicalOpts())
		if err != nil {
			return nil, err
		}
		spec := workload.DefaultSpec(55)
		spec.Steps = 400
		gen, err := workload.NewGenerator(spec)
		if err != nil {
			return nil, err
		}
		for i, o := range gen.Stream() {
			if err := eng.Execute(o); err != nil {
				return nil, err
			}
			if i%7 == 0 {
				if err := eng.InstallOne(); err != nil {
					return nil, err
				}
			}
			if interval > 0 && i%interval == interval-1 {
				if rg.sharp {
					if err := eng.FlushAll(); err != nil {
						return nil, err
					}
				}
				if err := eng.Checkpoint(); err != nil {
					return nil, err
				}
			}
		}
		if err := eng.Log().Force(); err != nil {
			return nil, err
		}
		eng.Crash()
		res, err := eng.Recover()
		if err != nil {
			return nil, err
		}
		label := "never"
		if interval > 0 {
			label = fmt.Sprintf("fuzzy/%d ops", interval)
			if rg.sharp {
				label = fmt.Sprintf("sharp/%d ops", interval)
			}
		}
		t.AddRow(label, res.AnalyzedRecords, res.ScannedOps, res.Redone)
	}
	t.Notes = append(t.Notes,
		"fuzzy checkpoints shorten the analysis pass (and truncate the log); the redo scan start is governed by dirty-object rSIs",
		"sharp checkpoints (flush before checkpointing) also collapse the redo scan, at the cost of flushing everything",
	)
	return t, nil
}

// A1InstallLogging ablates installation-record logging: without it, the
// analysis pass cannot advance rSIs past installed-but-unflushed operations
// and the redo pass does more work.
func A1InstallLogging() (*Table, error) {
	t := &Table{
		ID:      "A1",
		Title:   "ablation: install-record logging (rSI test, 200-op workload)",
		Paper:   "Section 5 design choice",
		Columns: []string{"install records", "ops scanned", "redone", "skipped unexposed"},
	}
	for _, logInstalls := range []bool{true, false} {
		opts := logicalOpts()
		opts.LogInstalls = logInstalls
		eng, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(workload.DefaultSpec(99))
		if err != nil {
			return nil, err
		}
		for i, o := range gen.Stream() {
			if err := eng.Execute(o); err != nil {
				return nil, err
			}
			if i%9 == 0 {
				if err := eng.InstallOne(); err != nil {
					return nil, err
				}
			}
		}
		if err := eng.Log().Force(); err != nil {
			return nil, err
		}
		eng.Crash()
		res, err := eng.Recover()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(logInstalls), res.ScannedOps, res.Redone, res.SkippedUnexposed)
	}
	return t, nil
}

// A2PolicyAblation compares the cache manager's flush behaviour under W vs
// rW on the same workload.
func A2PolicyAblation() (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "ablation: cache manager under W vs rW (200-op logical workload)",
		Paper:   "Section 3 design choice",
		Columns: []string{"policy", "installs", "objects flushed", "installed w/o flush", "multi-object flushes"},
	}
	for _, policy := range []writegraph.Policy{writegraph.PolicyW, writegraph.PolicyRW} {
		opts := logicalOpts()
		opts.Policy = policy
		if policy == writegraph.PolicyW {
			opts.Strategy = cache.StrategyShadow // W cannot use identity breakup
		}
		eng, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(workload.DefaultSpec(111))
		if err != nil {
			return nil, err
		}
		for i, o := range gen.Stream() {
			if err := eng.Execute(o); err != nil {
				return nil, err
			}
			if i%9 == 0 {
				if err := eng.InstallOne(); err != nil {
					return nil, err
				}
			}
		}
		if err := eng.FlushAll(); err != nil {
			return nil, err
		}
		st := eng.Cache().Stats()
		t.AddRow(policy.String(), st.Installs, st.ObjectsFlushed, st.InstalledNotFlushed, st.MultiObjectFlushes)
	}
	t.Notes = append(t.Notes, "rW installs operations without flushing unexposed objects; W must flush every written object")
	return t, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}
