// A process restart over a file WAL, through the engine.  This lives in
// package wal_test because internal/core imports internal/wal.
package wal_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// TestProcessRestartDecodesEachRecordOnce: a process restart over a file
// WAL — wal.New inside core.New, then Engine.Recover — decodes each durable
// record's body exactly once.  New reads only frames and record headers, and
// recovery takes every record from Restart's one walk.
func TestProcessRestartDecodesEachRecordOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	open := func() (*core.Engine, *wal.FileDevice) {
		t.Helper()
		dev, err := wal.OpenFileDevice(path)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.LogDevice = dev
		eng, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng, dev
	}
	eng, dev := open()
	for i := 0; i < 200; i++ {
		x := op.ObjectID(fmt.Sprintf("k%02d", i%20))
		o := op.NewPhysioWrite(x, op.FuncAppend, []byte{byte(i)})
		if i < 20 {
			o = op.NewCreate(x, []byte{byte(i)})
		}
		if err := eng.Execute(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	before := wal.BodyDecodes()
	eng, dev = open()
	defer dev.Close()
	if n := wal.BodyDecodes() - before; n != 0 {
		t.Fatalf("opening the log decoded %d record bodies, want 0", n)
	}
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	records := int64(eng.Log().StableLSN() - eng.Log().FirstLSN() + 1)
	if n := wal.BodyDecodes() - before; n != records || records != 200 || res.Redone != 200 {
		t.Fatalf("restart over %d durable records decoded %d bodies and redid %d ops, want 200 of each", records, n, res.Redone)
	}
}

// readCounter counts a device's full reads.
type readCounter struct {
	wal.Device
	reads int
}

func (d *readCounter) ReadAll() ([]byte, error) {
	d.reads++
	return d.Device.ReadAll()
}

// TestProcessRestartReadsDeviceOnce: a process restart over a file WAL —
// wal.New inside core.New, then Engine.Recover — reads the device once.
// Restart walks the bytes New read, since nothing touched the log between.
func TestProcessRestartReadsDeviceOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	dev, err := wal.OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := eng.Execute(op.NewPhysicalWrite(op.ObjectID(fmt.Sprintf("k%02d", i%10)), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	if dev, err = wal.OpenFileDevice(path); err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	counted := &readCounter{Device: dev}
	opts.LogDevice = counted
	if eng, err = core.New(opts); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if counted.reads != 1 || res.Redone != 50 {
		t.Fatalf("process restart read the device %d times and redid %d ops, want 1 and 50", counted.reads, res.Redone)
	}
}
