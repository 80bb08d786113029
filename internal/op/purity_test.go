package op_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"unsafe"

	"logicallog/internal/apprec"
	"logicallog/internal/btree"
	"logicallog/internal/core"
	"logicallog/internal/fsim"
	"logicallog/internal/lsm"
	"logicallog/internal/op"
	"logicallog/internal/workload"
)

// TestTransformsLeaveInputsUntouched wraps every registered TransformFunc —
// the builtins and the btree, lsm, fsim and apprec functions — so each call
// compares params and every read value byte for byte before and after, and
// requires every output to share no memory with them, then drives each
// domain's workload through execution, installs, a crash and recovery.
// Inputs are borrowed, not copied: a transform that writes into them
// corrupts the logged parameters or the cached values that later operations
// and redo read, and an output aliasing one would become cached state
// sharing the log's or another object's bytes.
func TestTransformsLeaveInputsUntouched(t *testing.T) {
	reg := op.NewRegistry()
	btree.Register(reg)
	lsm.Register(reg)
	fsim.Register(reg)
	apprec.Register(reg)
	var mu sync.Mutex
	calls := make(map[op.FuncID]int)
	reg.WrapAll(func(id op.FuncID, fn op.TransformFunc) op.TransformFunc {
		return func(params []byte, reads map[op.ObjectID][]byte) (map[op.ObjectID][]byte, error) {
			before := bytes.Clone(params)
			readsBefore := make(map[op.ObjectID][]byte, len(reads))
			for x, v := range reads {
				readsBefore[x] = bytes.Clone(v)
			}
			out, err := fn(params, reads)
			if !bytes.Equal(params, before) {
				t.Errorf("%s changed its params", id)
			}
			if len(reads) != len(readsBefore) {
				t.Errorf("%s changed its read set: %d -> %d objects", id, len(readsBefore), len(reads))
			}
			for x, v := range readsBefore {
				if !bytes.Equal(reads[x], v) {
					t.Errorf("%s changed its read of %s", id, x)
				}
			}
			for y, w := range out {
				if sharesMemory(w, params) {
					t.Errorf("%s output %s aliases its params", id, y)
				}
				for x, v := range reads {
					if sharesMemory(w, v) {
						t.Errorf("%s output %s aliases its read of %s", id, y, x)
					}
				}
			}
			mu.Lock()
			calls[id]++
			mu.Unlock()
			return out, err
		}
	})

	opts := core.DefaultOptions()
	opts.Registry = reg
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

	// Builtins: the logical/physiological stream, then one call of each
	// builtin the stream does not make.
	spec := workload.DefaultSpec(1)
	spec.Steps = 300
	gen, err := workload.NewGenerator(spec)
	must(err)
	for _, o := range gen.Stream() {
		must(eng.Execute(o))
	}
	counter := make([]byte, 8)
	binary.BigEndian.PutUint64(counter, 41)
	for _, o := range []*op.Operation{
		op.NewCreate("b/src", []byte("builtin source bytes")),
		op.NewCreate("b/n", counter),
		op.NewLogical(op.FuncIdentity, []byte("b/id"), []op.ObjectID{"b/src"}, []op.ObjectID{"b/id"}),
		op.NewLogical(op.FuncConst, op.EncodeParams([]byte("b/const"), []byte("v")), nil, []op.ObjectID{"b/const"}),
		op.NewLogical(op.FuncConcat, op.EncodeParams([]byte("b/id"), []byte("b/src")), []op.ObjectID{"b/id", "b/src"}, []op.ObjectID{"b/id"}),
		op.NewLogical(op.FuncSort, []byte("b/sorted"), []op.ObjectID{"b/src"}, []op.ObjectID{"b/sorted"}),
		op.NewLogical(op.FuncUpperHalf, []byte("b/upper"), []op.ObjectID{"b/src"}, []op.ObjectID{"b/upper"}),
		op.NewPhysioWrite("b/src", op.FuncLowerHalf, nil),
		op.NewPhysioWrite("b/n", op.FuncCounterAdd, binary.AppendUvarint(nil, 1)),
	} {
		must(eng.Execute(o))
	}

	// Domains: every scenario mix against a fresh instance of each
	// key/value surface.
	for j, mix := range workload.Mixes() {
		name := mix.Name
		tree, err := btree.New(eng, name, 4)
		must(err)
		tables, err := lsm.New(eng, name, lsm.Options{FlushThreshold: 6, Fanout: 3})
		must(err)
		doms := []workload.Domain{tree, tables, fsim.NewDomain(fsim.New(eng, "fs-"+name)), apprec.NewDomain(eng, "ap-"+name)}
		for i, dom := range doms {
			drv, err := workload.NewMixDriver(mix, int64(10*j+i))
			must(err)
			must(drv.Steps(dom, 150))
		}
		must(eng.FlushAll())
	}
	// A B+tree grown and then emptied rebalances, merges and collapses.
	shrink, err := btree.New(eng, "shrink", 4)
	must(err)
	for i := 0; i < 200; i++ {
		must(shrink.Insert([]byte{byte(i)}, []byte("v")))
	}
	for i := 0; i < 200; i++ {
		_, err := shrink.Delete([]byte{byte((i * 7) % 200)})
		must(err)
	}
	fs := fsim.New(eng, "fs")
	// The fsim and apprec operations the key/value adapters never run.
	must(fs.Create("a", []byte("zyx")))
	must(fs.Create("b", []byte("wvu")))
	must(fs.Append("a", []byte("tsr")))
	must(fs.Truncate("a", 4))
	must(fs.Copy("c", "a"))
	must(fs.Sort("d", "a"))
	must(fs.Concat("e", "a", "b"))
	app, err := apprec.Launch(eng, "app")
	must(err)
	must(app.Read("fs/e"))
	must(app.Step([]byte("salt")))
	must(app.Write("fs/f"))

	// Redo runs the same transforms on the recovered state: the checkpoint
	// forces the log, and everything since the last FlushAll is uninstalled.
	must(eng.Checkpoint())
	eng.Crash()
	before := total(calls)
	_, err = eng.Recover()
	must(err)
	if total(calls) == before {
		t.Error("recovery redid no transform")
	}

	for _, id := range reg.IDs() {
		if calls[id] == 0 {
			t.Errorf("no workload called %s", id)
		}
	}
}

// sharesMemory reports whether the backing arrays of a and b overlap
// anywhere within their capacities.
func sharesMemory(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

func total(calls map[op.FuncID]int) (n int) {
	for _, c := range calls {
		n += c
	}
	return n
}
