package core_test

import (
	"testing"

	"logicallog/internal/cache"
	. "logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/writegraph"
)

func newEng(t *testing.T, opts Options) *Engine {
	t.Helper()
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Policy != writegraph.PolicyRW || o.Strategy != cache.StrategyIdentityWrite ||
		o.RedoTest != recovery.TestRSI || !o.LogInstalls {
		t.Errorf("DefaultOptions = %+v", o)
	}
}

func TestExecuteGetFlushRoundTrip(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	if err := eng.Execute(op.NewCreate("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	v, err := eng.Get("x")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if len(eng.History()) != 1 {
		t.Errorf("History = %d ops", len(eng.History()))
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sv, err := eng.Store().Read("x")
	if err != nil || string(sv.Val) != "v" {
		t.Errorf("stable x = %+v, %v", sv, err)
	}
	// InstallOne on an empty graph is a no-op.
	if err := eng.InstallOne(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysiologicalLowering(t *testing.T) {
	opts := DefaultOptions()
	opts.Physiological = true
	eng := newEng(t, opts)
	if err := eng.Execute(op.NewCreate("src", []byte("data"))); err != nil {
		t.Fatal(err)
	}
	// A logical B-form op is lowered to a physical write.
	b := op.NewLogical(op.FuncCopy, []byte("dst"), []op.ObjectID{"src"}, []op.ObjectID{"dst"})
	if err := eng.Execute(b); err != nil {
		t.Fatal(err)
	}
	hist := eng.History()
	last := hist[len(hist)-1]
	if last.Kind != op.KindPhysicalWrite {
		t.Errorf("lowered kind = %v", last.Kind)
	}
	if len(last.Values) != 1 || string(last.Values[0]) != "data" {
		t.Errorf("lowered values = %q", last.Values)
	}
	// Physiological self-transforms pass through unchanged.
	if err := eng.Execute(op.NewPhysioWrite("dst", op.FuncAppend, []byte("!"))); err != nil {
		t.Fatal(err)
	}
	hist = eng.History()
	if hist[len(hist)-1].Kind != op.KindPhysioWrite {
		t.Error("physiological op was lowered")
	}
	v, _ := eng.Get("dst")
	if string(v) != "data!" {
		t.Errorf("dst = %q", v)
	}
	// Lowering an op whose input is missing fails cleanly.
	bad := op.NewLogical(op.FuncCopy, []byte("y"), []op.ObjectID{"ghost"}, []op.ObjectID{"y"})
	if err := eng.Execute(bad); err == nil {
		t.Error("lowering with missing input succeeded")
	}
}

func TestStatsAndReset(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	if err := eng.Execute(op.NewCreate("x", make([]byte, 100))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Log.BytesAppended == 0 || st.Store.ObjectWrites == 0 || st.Cache.Installs == 0 {
		t.Errorf("Stats = %+v", st)
	}
	eng.ResetStats()
	st = eng.Stats()
	if st.Log.BytesAppended != 0 || st.Store.ObjectWrites != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestCrashRecoverSwapsManager(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	if err := eng.Execute(op.NewCreate("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	before := eng.Cache()
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if eng.Cache() == before {
		t.Error("Recover did not install the recovered cache manager")
	}
	v, err := eng.Get("x")
	if err != nil || string(v) != "v" {
		t.Errorf("recovered x = %q, %v", v, err)
	}
	// History survives crash (test-oracle contract).
	if len(eng.History()) != 1 {
		t.Errorf("History = %d", len(eng.History()))
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	eng := newEng(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		if err := eng.Execute(op.NewPhysicalWrite("x", []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if eng.Log().FirstLSN() <= 1 {
		t.Errorf("FirstLSN = %d: checkpoint did not truncate", eng.Log().FirstLSN())
	}
}
