package recovery_test

import (
	"bytes"
	"testing"

	"logicallog/internal/apprec"
	"logicallog/internal/btree"
	"logicallog/internal/core"
	"logicallog/internal/fsim"
	"logicallog/internal/lsm"
	"logicallog/internal/op"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
)

// keepingDevice remembers every buffer its ReadAll hands out, next to a
// copy taken at the time.
type keepingDevice struct {
	wal.Device
	bufs, copies [][]byte
}

func (d *keepingDevice) ReadAll() ([]byte, error) {
	b, err := d.Device.ReadAll()
	d.bufs = append(d.bufs, b)
	d.copies = append(d.copies, bytes.Clone(b))
	return b, err
}

// TestRedoLeavesLogSnapshotUntouched: redo replays the decoded records
// without copying them, so their params and values alias the buffer the
// log scanner read from the device.  After recovering the builtin stream
// and every scenario mix over the btree, lsm, fsim and apprec domains — and
// installing everything recovery rebuilt — every buffer the device handed
// out must still equal its copy.
func TestRedoLeavesLogSnapshotUntouched(t *testing.T) {
	reg := op.NewRegistry()
	btree.Register(reg)
	lsm.Register(reg)
	fsim.Register(reg)
	apprec.Register(reg)
	dev := &keepingDevice{Device: wal.NewMemDevice()}
	opts := core.DefaultOptions()
	opts.Registry = reg
	opts.LogDevice = dev
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	spec := workload.DefaultSpec(3)
	spec.Steps = 200
	gen, err := workload.NewGenerator(spec)
	must(err)
	for _, o := range gen.Stream() {
		must(eng.Execute(o))
	}
	for j, mix := range workload.Mixes() {
		tree, err := btree.New(eng, mix.Name, 4)
		must(err)
		tables, err := lsm.New(eng, mix.Name, lsm.Options{FlushThreshold: 6, Fanout: 3})
		must(err)
		doms := []workload.Domain{tree, tables, fsim.NewDomain(fsim.New(eng, "fs-"+mix.Name)), apprec.NewDomain(eng, "ap-"+mix.Name)}
		for i, dom := range doms {
			drv, err := workload.NewMixDriver(mix, int64(10*j+i))
			must(err)
			must(drv.Steps(dom, 60))
		}
	}
	must(eng.Log().Force())
	eng.Crash()

	dev.bufs, dev.copies = nil, nil
	res, err := eng.Recover()
	must(err)
	if res.Redone == 0 {
		t.Fatal("recovery redid nothing; the test is vacuous")
	}
	must(eng.FlushAll())
	if len(dev.bufs) == 0 {
		t.Fatal("recovery never read the device")
	}
	for i, b := range dev.bufs {
		if !bytes.Equal(b, dev.copies[i]) {
			t.Errorf("device read %d (%d bytes) changed after redo", i, len(b))
		}
	}
}
