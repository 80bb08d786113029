package logicallog

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func openDefault(t *testing.T) *DB {
	t.Helper()
	db, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenRejectsBadOptions(t *testing.T) {
	for _, opts := range []Options{
		{WriteGraph: 99},
		{Strategy: 99},
		{RedoTest: 99},
	} {
		if _, err := Open(opts); err == nil {
			t.Errorf("Open(%+v) succeeded", opts)
		}
	}
}

func TestOpenClassicGraphFallsBackFromIdentity(t *testing.T) {
	opts := DefaultOptions()
	opts.WriteGraph = ClassicWriteGraph
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The fallback must actually work end to end: a workload that would
	// need identity breakup under rW flushes atomically under W+shadow.
	db.Create("x", []byte{1})
	db.Create("y", []byte{2})
	db.RegisterFunc("mix", func(_ []byte, reads map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"y": append(reads["x"], reads["y"]...)}, nil
	})
	if err := db.ApplyLogical("mix", nil, []string{"x", "y"}, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestCRUDAndLogicalRoundTrip(t *testing.T) {
	db := openDefault(t)
	if err := db.Create("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get("a")
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Set("a", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	db.RegisterFunc("exclaim", func(params []byte, reads map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"a": append(reads["a"], params...)}, nil
	})
	if err := db.Update("a", "exclaim", []byte("!")); err != nil {
		t.Fatal(err)
	}
	v, _ = db.Get("a")
	if string(v) != "v2!" {
		t.Errorf("after update: %q", v)
	}
	db.RegisterFunc("dup", func(_ []byte, reads map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"b": reads["a"]}, nil
	})
	if err := db.ApplyLogical("dup", nil, []string{"a"}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	v, _ = db.Get("b")
	if string(v) != "v2!" {
		t.Errorf("logical dup: %q", v)
	}
	if err := db.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("b"); err == nil {
		t.Error("deleted object readable")
	}
}

func TestCrashRecoverFlow(t *testing.T) {
	db := openDefault(t)
	db.Create("k", []byte("base"))
	db.RegisterFunc("app", func(p []byte, r map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"k": append(r["k"], p...)}, nil
	})
	db.Update("k", "app", []byte("+1"))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Update("k", "app", []byte("+lost")) // never synced
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redone != 2 {
		t.Errorf("Redone = %d, want 2", rep.Redone)
	}
	v, err := db.Get("k")
	if err != nil || string(v) != "base+1" {
		t.Errorf("recovered k = %q, %v", v, err)
	}
}

func TestStatsAndFlushOne(t *testing.T) {
	db := openDefault(t)
	db.Create("x", []byte("1234"))
	if err := db.FlushOne(); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushOne(); err != nil { // empty graph: no-op
		t.Fatal(err)
	}
	st := db.Stats()
	if st.LogBytesAppended == 0 || st.ObjectWrites != 1 || st.Installs != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if st.LogValueBytes < 4 {
		t.Errorf("LogValueBytes = %d", st.LogValueBytes)
	}
}

func TestCheckpointTruncates(t *testing.T) {
	db := openDefault(t)
	for i := 0; i < 20; i++ {
		db.Set("x", []byte{byte(i)})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsScanned != 0 {
		t.Errorf("post-checkpoint recovery scanned %d ops", rep.OpsScanned)
	}
}

func TestFileBackedRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	opts := DefaultOptions()
	opts.LogPath = path

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Create("persistent", []byte("survives"))
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same log file in a "new process" and recover.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := db2.Get("persistent")
	if err != nil || string(v) != "survives" {
		t.Errorf("after restart: %q, %v", v, err)
	}
}

func TestPhysiologicalBaselineOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Physiological = true
	opts.RedoTest = ClassicVSI
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	big := []byte(strings.Repeat("v", 8192))
	db.Create("src", big)
	db.RegisterFunc("copy2", func(_ []byte, r map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"dst": r["src"]}, nil
	})
	before := db.Stats().LogValueBytes
	if err := db.ApplyLogical("copy2", nil, []string{"src"}, []string{"dst"}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().LogValueBytes - before; got < 8192 {
		t.Errorf("physiological option logged only %d value bytes", got)
	}
	v, _ := db.Get("dst")
	if string(v) != string(big) {
		t.Error("lowered logical op produced wrong value")
	}
}

func TestRedoAllOption(t *testing.T) {
	opts := DefaultOptions()
	opts.RedoTest = RedoAll
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db.Set("p", []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	rep, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redone != 5 {
		t.Errorf("Redone = %d, want 5", rep.Redone)
	}
	v, _ := db.Get("p")
	if string(v) != "v4" {
		t.Errorf("p = %q", v)
	}
}

func TestEngineEscapeHatch(t *testing.T) {
	db := openDefault(t)
	if db.Engine() == nil {
		t.Fatal("Engine() nil")
	}
	if db.Close() != nil {
		t.Error("Close on memory-backed DB must be nil")
	}
}

// TestTransformOutputsAreCopied: the engine owns a Transform's outputs, so
// one that returns a read as an output does not leave the written object
// cached sharing the read object's bytes.
func TestTransformOutputsAreCopied(t *testing.T) {
	db := openDefault(t)
	if err := db.Create("big", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	db.RegisterFunc("dup", func(_ []byte, reads map[string][]byte) (map[string][]byte, error) {
		return map[string][]byte{"copy": reads["big"]}, nil
	})
	if err := db.ApplyLogical("dup", nil, []string{"big"}, []string{"copy"}); err != nil {
		t.Fatal(err)
	}
	big, err := db.eng.Cache().Borrow("big")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := db.eng.Cache().Borrow("copy")
	if err != nil {
		t.Fatal(err)
	}
	if string(cp) != "payload" || &cp[0] == &big[0] {
		t.Fatalf("copy = %q, sharing big's bytes: %v", cp, &cp[0] == &big[0])
	}
}
