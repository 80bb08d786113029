package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

func newTestManager(t *testing.T, cfg Config) (*Manager, *wal.Log, *stable.Store) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = op.NewRegistry()
	}
	log, err := wal.New(wal.NewMemDevice())
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewStore()
	m, err := NewManager(cfg, log, store)
	if err != nil {
		t.Fatal(err)
	}
	return m, log, store
}

func rwIdentityCfg() Config {
	return Config{Policy: writegraph.PolicyRW, Strategy: StrategyIdentityWrite, LogInstalls: true}
}

func mustExec(t *testing.T, m *Manager, o *op.Operation) {
	t.Helper()
	if err := m.Execute(o); err != nil {
		t.Fatalf("Execute(%s): %v", o, err)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyIdentityWrite.String() != "identity-write" || StrategyShadow.String() != "shadow" ||
		StrategyFlushTxn.String() != "flush-txn" || FlushStrategy(9).String() == "" {
		t.Error("FlushStrategy.String wrong")
	}
}

func TestNewManagerRequiresRegistry(t *testing.T) {
	log, _ := wal.New(wal.NewMemDevice())
	if _, err := NewManager(Config{}, log, stable.NewStore()); err == nil {
		t.Error("NewManager must require a registry")
	}
}

func TestExecuteGetInstallEvictRoundTrip(t *testing.T) {
	m, log, store := newTestManager(t, rwIdentityCfg())
	mustExec(t, m, op.NewCreate("X", []byte("v0")))
	mustExec(t, m, op.NewPhysioWrite("X", op.FuncAppend, []byte("+1")))

	v, err := m.Get("X")
	if err != nil || string(v) != "v0+1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if m.DirtyCount() != 1 {
		t.Errorf("DirtyCount = %d", m.DirtyCount())
	}
	if rsi, _ := m.RSI("X"); rsi != 1 {
		t.Errorf("rSI = %d, want 1 (first uninstalled op)", rsi)
	}

	// Install everything.
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	if m.DirtyCount() != 0 {
		t.Error("dirty after PurgeAll")
	}
	sv, err := store.Read("X")
	if err != nil || string(sv.Val) != "v0+1" || sv.VSI != 2 {
		t.Errorf("stable X = %+v, %v", sv, err)
	}
	// WAL protocol: both op records durable.
	if log.StableLSN() < 2 {
		t.Errorf("StableLSN = %d, WAL violated", log.StableLSN())
	}

	// Drop the volatile state and fault X back in from the stable store.
	m.Crash()
	if _, ok := m.VSI("X"); ok {
		t.Error("entry survived the crash")
	}
	v, err = m.Get("X")
	if err != nil || string(v) != "v0+1" {
		t.Errorf("post-evict Get = %q, %v", v, err)
	}
	if vsi, _ := m.VSI("X"); vsi != 2 {
		t.Errorf("faulted vSI = %d", vsi)
	}
}

func TestGetMissingAndDeleted(t *testing.T) {
	m, _, _ := newTestManager(t, rwIdentityCfg())
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v", err)
	}
	mustExec(t, m, op.NewCreate("X", []byte("v")))
	mustExec(t, m, op.NewDelete("X"))
	if _, err := m.Get("X"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(deleted) = %v", err)
	}
}

func TestExecuteRejectsBadOps(t *testing.T) {
	m, _, _ := newTestManager(t, rwIdentityCfg())
	if err := m.Execute(&op.Operation{}); err == nil {
		t.Error("invalid op accepted")
	}
	logged := op.NewCreate("X", []byte("v"))
	logged.LSN = 9
	if err := m.Execute(logged); err == nil {
		t.Error("already-logged op accepted")
	}
	// Reading a missing object fails before logging.
	bad := op.NewLogical(op.FuncCopy, []byte("Y"), []op.ObjectID{"missing"}, []op.ObjectID{"Y"})
	if err := m.Execute(bad); err == nil {
		t.Error("op reading missing object accepted")
	}
}

// figure7 drives the Figure 7 scenario: A blind-writes {X,Y}; B reads X into
// Z; C blind-rewrites X.
func figure7(t *testing.T, m *Manager) {
	t.Helper()
	a := &op.Operation{
		Kind:     op.KindPhysicalWrite,
		WriteSet: []op.ObjectID{"X", "Y"},
		Values:   [][]byte{[]byte("xA"), []byte("yA")},
	}
	mustExec(t, m, a)
	mustExec(t, m, op.NewLogical(op.FuncCopy, []byte("Z"), []op.ObjectID{"X"}, []op.ObjectID{"Z"}))
	mustExec(t, m, op.NewPhysicalWrite("X", []byte("xC")))
}

func TestFigure7InstallSequence(t *testing.T) {
	m, log, store := newTestManager(t, rwIdentityCfg())
	figure7(t, m)

	// rW: three nodes; every install flushes exactly one object, in order
	// Z (B), Y (A, with X unexposed), X (C).
	var flushedOrder []op.ObjectID
	for {
		vars, err := m.InstallMinimal()
		if errors.Is(err, ErrNothingToInstall) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(vars) != 1 {
			t.Fatalf("multi-object flush %v under rW+Figure7", vars)
		}
		flushedOrder = append(flushedOrder, vars[0])
	}
	want := []op.ObjectID{"Z", "Y", "X"}
	for i := range want {
		if flushedOrder[i] != want[i] {
			t.Fatalf("flush order = %v, want %v", flushedOrder, want)
		}
	}
	// Stable state: everything current.
	for x, wantV := range map[op.ObjectID]string{"X": "xC", "Y": "yA", "Z": "xA"} {
		v, err := store.Read(x)
		if err != nil || string(v.Val) != string(wantV) {
			t.Errorf("stable %s = %q, %v", x, v.Val, err)
		}
	}
	if st := m.Stats(); st.InstalledNotFlushed != 1 {
		t.Errorf("InstalledNotFlushed = %d, want 1 (X in Notx of A's node)", st.InstalledNotFlushed)
	}
	// The install log contains an install record naming X unflushed with
	// rSI = C's LSN (3).  Install records are lazily logged; force first.
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	sc, _ := log.Scan(0)
	recs, _ := sc.All()
	foundUnflushed := false
	for _, r := range recs {
		if r.Type == wal.RecInstall {
			for _, u := range r.Install.Unflushed {
				if u.ID == "X" && u.RSI == 3 {
					foundUnflushed = true
				}
			}
		}
	}
	if !foundUnflushed {
		t.Error("no install record advancing X's rSI to C's lSI")
	}
}

func TestFigure7RSIAdvancement(t *testing.T) {
	m, _, _ := newTestManager(t, rwIdentityCfg())
	figure7(t, m)

	// Before any install: X's rSI is A's lSI (1) — "the rSI for X is not
	// advanced when operation C is encountered and logged".
	if rsi, _ := m.RSI("X"); rsi != 1 {
		t.Errorf("pre-install rSI(X) = %d, want 1", rsi)
	}
	// Install B's node (Z) then A's node (Y; X unexposed).
	if _, err := m.InstallMinimal(); err != nil { // Z
		t.Fatal(err)
	}
	if _, err := m.InstallMinimal(); err != nil { // Y
		t.Fatal(err)
	}
	// "The rSI for X is advanced when node (1) is installed ... X's rSI is
	// then set to the lSI for operation C."
	if rsi, _ := m.RSI("X"); rsi != 3 {
		t.Errorf("post-install rSI(X) = %d, want 3", rsi)
	}
	// X is installed-but-not-flushed: still dirty.
	if m.DirtyCount() != 1 {
		t.Errorf("DirtyCount = %d, want 1 (X)", m.DirtyCount())
	}
}

// cycleOps drives the Section 4 example that collapses to one rW node with
// vars {X,Y}: (a) Y=f(X,Y); (b) X=g(Y); (c) Y=h(Y).
func cycleOps(t *testing.T, m *Manager) {
	t.Helper()
	mustExec(t, m, op.NewCreate("X", []byte{1, 2}))
	mustExec(t, m, op.NewCreate("Y", []byte{3, 4}))
	if err := m.PurgeAll(); err != nil { // creates install standalone
		t.Fatal(err)
	}
	mustExec(t, m, op.NewLogical(op.FuncXor, op.EncodeParams([]byte("Y"), []byte("X")),
		[]op.ObjectID{"X", "Y"}, []op.ObjectID{"Y"})) // (a)
	mustExec(t, m, op.NewLogical(op.FuncCopy, []byte("X"),
		[]op.ObjectID{"Y"}, []op.ObjectID{"X"})) // (b)
	mustExec(t, m, op.NewPhysioWrite("Y", op.FuncAppend, []byte{9})) // (c)
}

func TestCycleIdentityWriteBreakup(t *testing.T) {
	m, _, store := newTestManager(t, rwIdentityCfg())
	cycleOps(t, m)
	if m.WriteGraph().Len() != 1 {
		t.Fatalf("write graph nodes = %d, want 1 (collapsed cycle)", m.WriteGraph().Len())
	}
	store.ResetStats()
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.IdentityWrites != 1 {
		t.Errorf("IdentityWrites = %d, want 1", st.IdentityWrites)
	}
	if st.MultiObjectFlushes != 0 {
		t.Errorf("MultiObjectFlushes = %d, want 0 (identity writes avoid them)", st.MultiObjectFlushes)
	}
	io := store.Stats()
	if io.PointerSwings != 0 || io.FlushTxnLogWrites != 0 {
		t.Error("identity-write strategy must not use shadow/flush-txn mechanisms")
	}
	// Final stable values match an in-order replay.
	x, _ := store.Read("X")
	y, _ := store.Read("Y")
	wantY := []byte{1 ^ 3, 2 ^ 4}          // (a)
	wantX := append([]byte(nil), wantY...) // (b)
	wantY = append(wantY, 9)               // (c)
	if !op.Equal(x.Val, wantX) || !op.Equal(y.Val, wantY) {
		t.Errorf("stable X=%v Y=%v, want X=%v Y=%v", x.Val, y.Val, wantX, wantY)
	}
}

func TestCycleShadowStrategy(t *testing.T) {
	m, _, store := newTestManager(t, Config{
		Policy: writegraph.PolicyRW, Strategy: StrategyShadow, LogInstalls: true,
	})
	cycleOps(t, m)
	store.ResetStats()
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.MultiObjectFlushes != 1 || st.IdentityWrites != 0 {
		t.Errorf("MultiObjectFlushes = %d, IdentityWrites = %d", st.MultiObjectFlushes, st.IdentityWrites)
	}
	if store.Stats().PointerSwings != 1 {
		t.Errorf("PointerSwings = %d, want 1", store.Stats().PointerSwings)
	}
}

func TestCycleFlushTxnStrategy(t *testing.T) {
	m, _, store := newTestManager(t, Config{
		Policy: writegraph.PolicyRW, Strategy: StrategyFlushTxn, LogInstalls: true,
	})
	cycleOps(t, m)
	store.ResetStats()
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	io := store.Stats()
	// 2 values + 1 commit on the flush-txn log, then 2 in-place writes.
	if io.FlushTxnLogWrites != 3 {
		t.Errorf("FlushTxnLogWrites = %d, want 3", io.FlushTxnLogWrites)
	}
	if io.ObjectWrites != 2 {
		t.Errorf("ObjectWrites = %d, want 2", io.ObjectWrites)
	}
}

func TestIdentityBreakupRequiresRW(t *testing.T) {
	m, _, _ := newTestManager(t, Config{
		Policy: writegraph.PolicyW, Strategy: StrategyIdentityWrite, LogInstalls: true,
	})
	// Two ops sharing a writeset object force a multi-object W node.
	a := &op.Operation{
		Kind:     op.KindPhysicalWrite,
		WriteSet: []op.ObjectID{"X", "Y"},
		Values:   [][]byte{[]byte("x"), []byte("y")},
	}
	mustExec(t, m, a)
	if _, err := m.InstallMinimal(); err == nil {
		t.Error("identity breakup under W must be rejected")
	}
}

func TestCheckpointAndTruncate(t *testing.T) {
	m, log, _ := newTestManager(t, rwIdentityCfg())
	// What Engine.Checkpoint does: checkpoint, then truncate at the
	// truncation point the dirty table justifies.
	checkpointAndTruncate := func() op.SI {
		t.Helper()
		lsn, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Truncate(m.TruncationPoint(lsn)); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	mustExec(t, m, op.NewCreate("A", []byte("a")))
	mustExec(t, m, op.NewCreate("B", []byte("b")))
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, m, op.NewPhysioWrite("B", op.FuncAppend, []byte("+")))

	dt := m.DirtyTable()
	if len(dt) != 1 || dt[0].ID != "B" {
		t.Fatalf("DirtyTable = %v", dt)
	}
	cpLSN := checkpointAndTruncate()
	if m.Stats().Checkpoints != 1 {
		t.Error("checkpoint not counted")
	}
	// Truncation point is B's rSI (the append's LSN), so records before it
	// are gone but the append survives.
	if log.FirstLSN() != dt[0].RSI {
		t.Errorf("FirstLSN = %d, want %d", log.FirstLSN(), dt[0].RSI)
	}
	sc, err := log.Scan(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := sc.All()
	var lastCP op.SI
	for _, rec := range recs {
		if rec.Type == wal.RecCheckpoint {
			lastCP = rec.LSN
		}
	}
	if lastCP != cpLSN {
		t.Errorf("last checkpoint on the log = %d, want %d", lastCP, cpLSN)
	}
	// With nothing dirty, truncation reaches the checkpoint itself.
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	cpLSN2 := checkpointAndTruncate()
	if log.FirstLSN() != cpLSN2 {
		t.Errorf("FirstLSN = %d, want %d", log.FirstLSN(), cpLSN2)
	}
}

func TestDeleteReachesStableStore(t *testing.T) {
	m, _, store := newTestManager(t, rwIdentityCfg())
	mustExec(t, m, op.NewCreate("X", []byte("v")))
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	if !store.Contains("X") {
		t.Fatal("create not installed")
	}
	mustExec(t, m, op.NewDelete("X"))
	if err := m.PurgeAll(); err != nil {
		t.Fatal(err)
	}
	if store.Contains("X") {
		t.Error("delete not installed")
	}
	if _, ok := m.VSI("X"); ok {
		t.Error("terminated object still in object table")
	}
}

func TestCrashWipesVolatileState(t *testing.T) {
	m, _, _ := newTestManager(t, rwIdentityCfg())
	mustExec(t, m, op.NewCreate("X", []byte("v")))
	m.Crash()
	if m.DirtyCount() != 0 || m.WriteGraph().Len() != 0 {
		t.Error("Crash left volatile state")
	}
}

func TestTryApplyLoggedVoidsBadRedo(t *testing.T) {
	m, _, _ := newTestManager(t, rwIdentityCfg())
	// An op reading a missing object: trial execution voids.
	o := op.NewLogical(op.FuncCopy, []byte("Y"), []op.ObjectID{"gone"}, []op.ObjectID{"Y"})
	o.LSN = 5
	voided, err := m.TryApplyLogged(o)
	if err != nil || !voided {
		t.Errorf("TryApplyLogged = voided %v, %v", voided, err)
	}
	// A healthy op applies.
	c := op.NewCreate("X", []byte("v"))
	c.LSN = 6
	voided, err = m.TryApplyLogged(c)
	if err != nil || voided {
		t.Errorf("TryApplyLogged(healthy) = voided %v, %v", voided, err)
	}
	if _, err := m.Get("X"); err != nil {
		t.Error("healthy trial apply did not take effect")
	}
	if _, err := m.TryApplyLogged(op.NewCreate("Y", nil)); err == nil {
		t.Error("un-logged op accepted")
	}
}

// TestContractBreachVoids: a transform that breaks its operation's
// contract voids a redo trial without touching the cache or the write
// graph, and fails Execute before the operation reaches the log.  Each
// breach is one registered transform over an operation that reads and
// writes {X, Y}.
func TestContractBreachVoids(t *testing.T) {
	breaches := []struct {
		name string
		fn   op.TransformFunc
	}{
		{"read outside readset", func(_ []byte, a *op.Args) error {
			a.Read("Z")
			a.Write("X", []byte("x'"))
			a.Write("Y", []byte("y'"))
			return nil
		}},
		{"sole of two reads", func(_ []byte, a *op.Args) error {
			_, v := a.Sole()
			a.Write("X", append([]byte(nil), v...))
			a.Write("Y", []byte("y'"))
			return nil
		}},
		{"write outside writeset", func(_ []byte, a *op.Args) error {
			a.Write("X", []byte("x'"))
			a.Write("Y", []byte("y'"))
			a.Write("Z", []byte("z'"))
			return nil
		}},
		{"double write", func(_ []byte, a *op.Args) error {
			a.Write("X", []byte("x'"))
			a.Write("Y", []byte("y'"))
			a.Write("X", []byte("x''"))
			return nil
		}},
		{"unwritten slot", func(_ []byte, a *op.Args) error {
			a.Write("X", []byte("x'"))
			return nil
		}},
	}
	reg := op.NewRegistry()
	for i, b := range breaches {
		reg.Register(op.FuncID(fmt.Sprintf("test.breach%d", i)), b.fn)
	}
	for i, b := range breaches {
		t.Run(b.name, func(t *testing.T) {
			cfg := rwIdentityCfg()
			cfg.Registry = reg
			m, log, _ := newTestManager(t, cfg)
			mustExec(t, m, op.NewCreate("X", []byte("x")))
			mustExec(t, m, op.NewCreate("Y", []byte("y")))
			state := func() string {
				x, xerr := m.Get("X")
				y, yerr := m.Get("Y")
				xv, _ := m.VSI("X")
				yv, _ := m.VSI("Y")
				g := m.WriteGraph()
				return fmt.Sprintf("X=%q %v @%d, Y=%q %v @%d, graph %d nodes %d ops, dirty %d, next LSN %d",
					x, xerr, xv, y, yerr, yv, g.Len(), g.OpCount(), m.DirtyCount(), log.NextLSN())
			}
			xy := []op.ObjectID{"X", "Y"}
			before := state()

			o := op.NewLogical(op.FuncID(fmt.Sprintf("test.breach%d", i)), nil, xy, xy)
			o.LSN = log.NextLSN()
			voided, err := m.TryApplyLogged(o)
			if err != nil || !voided {
				t.Errorf("TryApplyLogged = voided %v, %v; want voided", voided, err)
			}
			if after := state(); after != before {
				t.Errorf("voided trial changed state:\n before %s\n after  %s", before, after)
			}

			o = op.NewLogical(op.FuncID(fmt.Sprintf("test.breach%d", i)), nil, xy, xy)
			var ce *op.ContractError
			if err := m.Execute(o); !errors.As(err, &ce) {
				t.Errorf("Execute = %v, want a *op.ContractError", err)
			}
			if after := state(); after != before {
				t.Errorf("failed Execute changed state or logged:\n before %s\n after  %s", before, after)
			}
		})
	}
}

// TestBorrowedReadsAreCapped: transforms receive the cached value itself,
// not a copy, so the borrowed slice must be capped at its length.  X is
// given spare capacity; two operations then each write append(X, b) for
// their own b.  Uncapped, both appends would write into X's one spare byte
// and the first result would end in the second's byte.
func TestBorrowedReadsAreCapped(t *testing.T) {
	reg := op.NewRegistry()
	reg.Register("test.spare", func(_ []byte, a *op.Args) error {
		v := make([]byte, 3, 64)
		copy(v, "abc")
		a.Write("X", v)
		return nil
	})
	reg.Register("test.append", func(params []byte, a *op.Args) error {
		fields, err := op.DecodeParams(params)
		if err != nil || len(fields) != 2 {
			return errors.New("test.append: want (target, byte) params")
		}
		a.Write(op.ObjectID(fields[0]), append(a.Read("X"), fields[1]...))
		return nil
	})
	cfg := rwIdentityCfg()
	cfg.Registry = reg
	m, _, _ := newTestManager(t, cfg)
	mustExec(t, m, op.NewLogical("test.spare", nil, nil, []op.ObjectID{"X"}))
	for _, y := range []string{"1", "2"} {
		mustExec(t, m, op.NewLogical("test.append", op.EncodeParams([]byte("Y"+y), []byte(y)), []op.ObjectID{"X"}, []op.ObjectID{op.ObjectID("Y" + y)}))
	}
	for x, want := range map[op.ObjectID]string{"X": "abc", "Y1": "abc1", "Y2": "abc2"} {
		if got, err := m.Get(x); err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", x, got, err, want)
		}
	}
}

// TestRandomWorkloadMatchesOracle drives random logical/physiological
// operation mixes with interleaved installs and verifies that after
// PurgeAll the stable store equals a straight in-memory replay of the
// logged history.
func TestRandomWorkloadMatchesOracle(t *testing.T) {
	objects := []op.ObjectID{"o0", "o1", "o2", "o3"}
	for _, cfg := range []Config{
		rwIdentityCfg(),
		{Policy: writegraph.PolicyRW, Strategy: StrategyShadow, LogInstalls: true},
		{Policy: writegraph.PolicyW, Strategy: StrategyShadow, LogInstalls: true},
		{Policy: writegraph.PolicyW, Strategy: StrategyFlushTxn, LogInstalls: false},
	} {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 10; trial++ {
			m, log, store := newTestManager(t, cfg)
			oracle := map[op.ObjectID][]byte{}
			reg := op.NewRegistry()
			// Create all objects first.
			for _, x := range objects {
				o := op.NewCreate(x, []byte{byte(trial)})
				mustExec(t, m, o)
				oracle[x] = []byte{byte(trial)}
			}
			for step := 0; step < 40; step++ {
				if rng.Intn(5) == 0 {
					if _, err := m.InstallMinimal(); err != nil && !errors.Is(err, ErrNothingToInstall) {
						t.Fatal(err)
					}
					continue
				}
				o := randomWorkloadOp(rng, objects)
				// Oracle replay first (Execute mutates op LSN only).
				reads := make([][]byte, len(o.ReadSet))
				for i, x := range o.ReadSet {
					reads[i] = oracle[x]
				}
				writes, err := reg.Apply(o, reads)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range o.WriteSet {
					oracle[x] = writes[i]
				}
				mustExec(t, m, o)
			}
			if err := m.PurgeAll(); err != nil {
				t.Fatalf("cfg %v/%v: %v", cfg.Policy, cfg.Strategy, err)
			}
			for _, x := range objects {
				sv, err := store.Read(x)
				if err != nil || !op.Equal(sv.Val, oracle[x]) {
					t.Fatalf("cfg %v/%v trial %d: stable %s = %v (%v), want %v",
						cfg.Policy, cfg.Strategy, trial, x, sv.Val, err, oracle[x])
				}
			}
			// WAL invariant held throughout: every op durable.
			if log.StableLSN() == 0 {
				t.Error("log never forced")
			}
		}
	}
}

func randomWorkloadOp(rng *rand.Rand, objects []op.ObjectID) *op.Operation {
	x := objects[rng.Intn(len(objects))]
	y := objects[rng.Intn(len(objects))]
	switch rng.Intn(5) {
	case 0:
		return op.NewPhysicalWrite(x, []byte{byte(rng.Intn(256))})
	case 1:
		return op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(rng.Intn(256))})
	case 2:
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{7})
		}
		return op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
			[]op.ObjectID{x, y}, []op.ObjectID{y})
	case 3:
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{8})
		}
		return op.NewLogical(op.FuncCopy, []byte(x), []op.ObjectID{y}, []op.ObjectID{x})
	default:
		if x == y {
			return op.NewPhysioWrite(x, op.FuncAppend, []byte{9})
		}
		return op.NewLogical(op.FuncConcat, op.EncodeParams([]byte(y), []byte(x)),
			[]op.ObjectID{x, y}, []op.ObjectID{y})
	}
}
