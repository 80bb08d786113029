package backup_test

import (
	"fmt"
	"testing"

	"logicallog/internal/backup"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/sim"
)

func TestBackupRestoreQuiescent(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := eng.Execute(op.NewCreate(op.ObjectID(fmt.Sprintf("o%d", i)), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Objects) != 5 {
		t.Fatalf("backup has %d objects", len(b.Objects))
	}
	if b.MinRetainLSN() != b.StartLSN {
		t.Error("MinRetainLSN wrong")
	}

	// Media failure: nuke the stable store, recover from backup + log.
	eng.Store().Restore(nil)
	eng.Crash()
	res, err := backup.MediaRecover(eng, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 {
		t.Errorf("quiescent backup needed %d redos", res.Redone)
	}
	for i := 0; i < 5; i++ {
		v, err := res.Manager.Get(op.ObjectID(fmt.Sprintf("o%d", i)))
		if err != nil || v[0] != byte(i) {
			t.Errorf("o%d = %v, %v", i, v, err)
		}
	}
}

// TestFuzzyBackupMediaRecovery interleaves updates and installs between the
// backup's object copies — some copied objects are older than others — and
// verifies media recovery reconciles everything via log replay.
func TestFuzzyBackupMediaRecovery(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ids := []op.ObjectID{"a", "b", "c", "d"}
	for i, id := range ids {
		if err := eng.Execute(op.NewCreate(id, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// During the backup, update every object (logically, chaining values
	// across objects) and install aggressively so the stable store churns
	// under the copier's feet.
	step := 0
	b, err := backup.Take(eng, func(copied int) error {
		for j := 0; j < 3; j++ {
			x := ids[step%len(ids)]
			y := ids[(step+1)%len(ids)]
			step++
			o := op.NewLogical(op.FuncXor, op.EncodeParams([]byte(y), []byte(x)),
				[]op.ObjectID{x, y}, []op.ObjectID{y})
			if err := eng.Execute(o); err != nil {
				return err
			}
		}
		return eng.InstallOne()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keep going after the backup finishes, then force the log.
	for j := 0; j < 5; j++ {
		if err := eng.Execute(op.NewPhysioWrite(ids[j%len(ids)], op.FuncAppend, []byte{byte(j)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	horizon := eng.Log().StableLSN()

	// Expected final values from the durable history oracle.
	oracle := sim.NewOracle(eng.Registry())
	for _, o := range eng.History() {
		if o.LSN != op.NilSI && o.LSN <= horizon {
			if err := oracle.Apply(o); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Media failure + media recovery from the fuzzy backup.
	eng.Store().Restore(nil)
	eng.Crash()
	res, err := backup.MediaRecover(eng, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone == 0 {
		t.Error("fuzzy backup required no redo; the interleave did nothing")
	}
	for _, id := range ids {
		want, _ := oracle.Value(id)
		got, err := res.Manager.Get(id)
		if err != nil || !op.Equal(got, want) {
			t.Errorf("%s = %v (%v), want %v", id, got, err, want)
		}
	}
}

func TestMediaRecoverRejectsTruncatedLog(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("x", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	// More activity, then checkpoint + truncate past the backup horizon.
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
	if eng.Log().FirstLSN() <= b.MinRetainLSN() {
		t.Skip("truncation did not pass the backup horizon")
	}
	if _, err := backup.MediaRecover(eng, b); err == nil {
		t.Error("media recovery with a truncated log must fail loudly")
	}
}

func TestBackupSkipsVanishedObjects(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("stays", []byte("s"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("goes", []byte("g"))); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Delete "goes" (and install the delete) in the middle of the copy.
	b, err := backup.Take(eng, func(copied int) error {
		if copied == 1 {
			if err := eng.Execute(op.NewDelete("goes")); err != nil {
				return err
			}
			return eng.FlushAll()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Store().Restore(nil)
	eng.Crash()
	res, err := backup.MediaRecover(eng, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Manager.Get("goes"); err == nil {
		t.Error("deleted object resurrected by media recovery")
	}
	if v, err := res.Manager.Get("stays"); err != nil || string(v) != "s" {
		t.Errorf("stays = %q, %v", v, err)
	}
}

// TestMediaRecoverEngineServes: after media recovery the engine itself
// serves the recovered state, not the restored backup image beneath it, and
// keeps executing on it.
func TestMediaRecoverEngineServes(t *testing.T) {
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewCreate("a", []byte{1})); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	b, err := backup.Take(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(op.NewPhysicalWrite("a", []byte{2})); err != nil {
		t.Fatal(err)
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Store().Restore(nil) // the media failure
	eng.Crash()
	res, err := backup.MediaRecover(eng, b)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.Manager.Get("a"); err != nil || string(v) != "\x02" {
		t.Fatalf("recovered manager: a = %v, %v", v, err)
	}
	if v, err := eng.Get("a"); err != nil || string(v) != "\x02" {
		t.Fatalf("engine after media recovery: a = %v, %v; want [2]", v, err)
	}
	if err := eng.Execute(op.NewPhysicalWrite("a", []byte{3})); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if v, err := eng.Store().Read("a"); err != nil || string(v.Val) != "\x03" {
		t.Fatalf("stable a after a post-recovery write = %v, %v", v, err)
	}
}
