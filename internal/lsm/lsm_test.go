package lsm

import (
	"fmt"
	"math/rand"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/op"
)

func newLSM(t *testing.T, opt Options) (*LSM, *core.Engine) {
	t.Helper()
	eng, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	l, err := New(eng, "t", opt)
	if err != nil {
		t.Fatal(err)
	}
	return l, eng
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val%06d", i)) }

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	es := []entry{
		{key: []byte("a"), tag: tagValue, val: []byte("1")},
		{key: []byte("b"), tag: tagTombstone, val: nil},
	}
	got, err := decodeTable(encodeTable(es))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].val) != "1" || got[1].tag != tagTombstone {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := decodeTable([]byte("junk")); err == nil {
		t.Error("junk table decoded")
	}
	man := &manifest{next: 7, tables: []op.ObjectID{"lsm/t/s00000003", "lsm/t/s00000001"}}
	gotMan, err := decodeManifest(encodeManifest(man))
	if err != nil {
		t.Fatal(err)
	}
	if gotMan.next != 7 || len(gotMan.tables) != 2 || gotMan.tables[1] != "lsm/t/s00000001" {
		t.Errorf("manifest round trip: %+v", gotMan)
	}
	if _, err := decodeManifest([]byte{1, 2}); err == nil {
		t.Error("junk manifest decoded")
	}
}

func TestPutGetDelete(t *testing.T) {
	l, _ := newLSM(t, Options{}) // manual maintenance
	if err := l.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, found, err := l.Get([]byte("a"))
	if err != nil || !found || string(v) != "1" {
		t.Errorf("Get(a) = %q, %v, %v", v, found, err)
	}
	if _, found, _ := l.Get([]byte("zz")); found {
		t.Error("found a missing key")
	}
	// Replacement.
	if err := l.Put([]byte("a"), []byte("1'")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = l.Get([]byte("a"))
	if string(v) != "1'" {
		t.Errorf("replaced value = %q", v)
	}
	// Delete masks, double delete reports absent.
	found, err = l.Delete([]byte("a"))
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, found, _ := l.Get([]byte("a")); found {
		t.Error("deleted key still visible")
	}
	if found, _ := l.Delete([]byte("a")); found {
		t.Error("double delete reported found")
	}
	if err := l.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestFlushMovesMemtableToSSTable(t *testing.T) {
	l, _ := newLSM(t, Options{})
	for i := 0; i < 10; i++ {
		if err := l.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemEntries != 0 || st.Tables != 1 || st.TableEntries != 10 {
		t.Errorf("post-flush stats: %+v", st)
	}
	// Values remain visible from the table.
	for i := 0; i < 10; i++ {
		v, found, err := l.Get(key(i))
		if err != nil || !found || string(v) != string(val(i)) {
			t.Fatalf("Get(%d) after flush = %q, %v, %v", i, v, found, err)
		}
	}
	// Idempotent on empty memtable.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, _ := l.Stats(); st.Tables != 1 {
		t.Errorf("empty flush grew the table set: %+v", st)
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactMergesAndDropsTombstones(t *testing.T) {
	l, eng := newLSM(t, Options{})
	// Three generations: insert, overwrite some, delete some — flush each.
	for i := 0; i < 12; i++ {
		if err := l.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Put(key(i), val(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if _, err := l.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ := l.Stats()
	if st.Tables != 3 || st.Tombstones != 3 {
		t.Fatalf("pre-compact stats: %+v", st)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st, _ = l.Stats()
	if st.Tables != 1 {
		t.Errorf("post-compact tables = %d", st.Tables)
	}
	if st.Tombstones != 0 {
		t.Errorf("full compaction kept %d tombstones", st.Tombstones)
	}
	if st.TableEntries != 9 {
		t.Errorf("post-compact entries = %d, want 9", st.TableEntries)
	}
	// Newest values won; deleted keys stay gone; old tables are deleted.
	for i := 0; i < 6; i++ {
		v, found, _ := l.Get(key(i))
		if !found || string(v) != string(val(i+100)) {
			t.Errorf("Get(%d) = %q, %v", i, v, found)
		}
	}
	for i := 6; i < 9; i++ {
		if _, found, _ := l.Get(key(i)); found {
			t.Errorf("compaction resurrected key %d", i)
		}
	}
	if _, err := eng.Get(op.ObjectID("lsm/t/s00000000")); err == nil {
		t.Error("compacted input table still exists")
	}
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalFlushLogsNoTableContents(t *testing.T) {
	l, eng := newLSM(t, Options{})
	bigVal := make([]byte, 2048)
	for i := 0; i < 8; i++ {
		if err := l.Put(key(i), bigVal); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil { // 1 table: no-op, still cheap
		t.Fatal(err)
	}
	st := eng.Log().Stats()
	// The flush moved ~16 KiB of entries into the new table but logged only
	// three object ids.
	if st.ValueBytes > 512 {
		t.Errorf("flush logged %d value bytes; logical flush must not log table contents", st.ValueBytes)
	}
	if st.OpPayloadBytes[op.KindLogical] > 256 {
		t.Errorf("flush payload = %d bytes", st.OpPayloadBytes[op.KindLogical])
	}
}

func TestPhysiologicalBaselineLogsTableContents(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Physiological = true
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	Register(eng.Registry())
	l, err := New(eng, "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	bigVal := make([]byte, 2048)
	for i := 0; i < 8; i++ {
		if err := l.Put(key(i), bigVal); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Log().Stats().ValueBytes; got < 16*1024 {
		t.Errorf("physiological flush logged only %d value bytes", got)
	}
}

func TestAutoMaintenance(t *testing.T) {
	l, _ := newLSM(t, Options{FlushThreshold: 4, Fanout: 2})
	for i := 0; i < 40; i++ {
		if err := l.Put(key(i%13), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if err := l.Check(); err != nil {
			t.Fatalf("after put %d: %v", i, err)
		}
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MemEntries >= 4 {
		t.Errorf("memtable never flushed: %+v", st)
	}
	if st.Tables > 3 {
		t.Errorf("table set never compacted: %+v", st)
	}
	// Every key's newest value survives the churn.
	for k := 0; k < 13; k++ {
		want := -1
		for i := 0; i < 40; i++ {
			if i%13 == k {
				want = i
			}
		}
		v, found, err := l.Get(key(k))
		if err != nil || !found || string(v) != string(val(want)) {
			t.Errorf("Get(%d) = %q, %v, %v; want %q", k, v, found, err, val(want))
		}
	}
}

func TestRangeMergesSources(t *testing.T) {
	l, _ := newLSM(t, Options{})
	// Keys spread across two tables and the memtable, with overwrites and a
	// tombstone in newer layers.
	for i := 0; i < 10; i += 2 {
		l.Put(key(i), val(i))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i += 2 {
		l.Put(key(i), val(i))
	}
	l.Put(key(2), val(102)) // overwrite in second table
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Delete(key(4)) // tombstone in memtable
	l.Put(key(0), val(100))

	var got []string
	if err := l.Scan(func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		string(key(0)) + "=" + string(val(100)),
		string(key(1)) + "=" + string(val(1)),
		string(key(2)) + "=" + string(val(102)),
		string(key(3)) + "=" + string(val(3)),
		// key 4 deleted
		string(key(5)) + "=" + string(val(5)),
		string(key(6)) + "=" + string(val(6)),
		string(key(7)) + "=" + string(val(7)),
		string(key(8)) + "=" + string(val(8)),
		string(key(9)) + "=" + string(val(9)),
	}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Bounded range with early stop.
	var bounded []string
	if err := l.Range(key(3), key(8), func(k, v []byte) bool {
		bounded = append(bounded, string(k))
		return len(bounded) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if len(bounded) != 3 || bounded[0] != string(key(3)) || bounded[2] != string(key(6)) {
		t.Errorf("bounded range = %v", bounded)
	}
}

func TestLSMSurvivesCrash(t *testing.T) {
	l, eng := newLSM(t, Options{FlushThreshold: 6, Fanout: 3})
	const n = 150
	live := make(map[string]string)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		k := rng.Intn(40)
		if rng.Intn(5) == 0 {
			if _, err := l.Delete(key(k)); err != nil {
				t.Fatal(err)
			}
			delete(live, string(key(k)))
		} else {
			if err := l.Put(key(k), val(i)); err != nil {
				t.Fatal(err)
			}
			live[string(key(k))] = string(val(i))
		}
		if i%23 == 0 {
			if err := eng.InstallOne(); err != nil {
				t.Fatal(err)
			}
		}
		if i%31 == 0 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Log().Force(); err != nil {
		t.Fatal(err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(eng, "t", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Check(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	if err := l2.Scan(func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(live) {
		t.Errorf("recovered %d keys, want %d", len(seen), len(live))
	}
	for k, v := range live {
		if seen[k] != v {
			t.Errorf("recovered %q = %q, want %q", k, seen[k], v)
		}
	}
}

func TestLSMCrashAtEveryBatch(t *testing.T) {
	// Crash after each batch; recovery must always yield a structurally
	// valid tree containing exactly the durable writes — flushes and
	// compactions included.
	for batches := 1; batches <= 8; batches++ {
		l, eng := newLSM(t, Options{FlushThreshold: 5, Fanout: 2})
		written := 0
		for b := 0; b < batches; b++ {
			for i := 0; i < 7; i++ {
				if err := l.Put(key(written), val(written)); err != nil {
					t.Fatal(err)
				}
				written++
			}
			if b%2 == 0 {
				if err := eng.InstallOne(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Log().Force(); err != nil {
			t.Fatal(err)
		}
		eng.Crash()
		if _, err := eng.Recover(); err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		l2, err := Open(eng, "t", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Check(); err != nil {
			t.Fatalf("batches=%d: %v", batches, err)
		}
		for i := 0; i < written; i++ {
			v, found, err := l2.Get(key(i))
			if err != nil || !found || string(v) != string(val(i)) {
				t.Fatalf("batches=%d: Get(%d) = %q, %v, %v", batches, i, v, found, err)
			}
		}
	}
}

func TestOpenMissingTree(t *testing.T) {
	eng, _ := core.New(core.DefaultOptions())
	Register(eng.Registry())
	if _, err := Open(eng, "ghost", Options{}); err == nil {
		t.Error("Open of missing tree succeeded")
	}
}

func TestCompactRejectsNonSuffixInputs(t *testing.T) {
	// Directly exercise the transform's guardrails: inputs that are not the
	// manifest's oldest suffix, or a wrong output id, must fail loudly.
	man := &manifest{next: 3, tables: []op.ObjectID{"lsm/t/s00000002", "lsm/t/s00000001", "lsm/t/s00000000"}}
	vals := map[op.ObjectID][]byte{
		"lsm/t/manifest":  encodeManifest(man),
		"lsm/t/s00000002": encodeTable(nil),
		"lsm/t/s00000001": encodeTable(nil),
		"lsm/t/s00000000": encodeTable(nil),
	}
	reg := op.NewRegistry()
	Register(reg)
	compact := func(out string, inputs ...string) ([][]byte, error) {
		fields := [][]byte{[]byte("lsm/t/manifest"), []byte(out)}
		rs := []op.ObjectID{"lsm/t/manifest"}
		for _, in := range inputs {
			fields = append(fields, []byte(in))
			rs = append(rs, op.ObjectID(in))
		}
		o := op.NewLogical(FuncCompact, op.EncodeParams(fields...), rs, []op.ObjectID{"lsm/t/manifest", op.ObjectID(out)})
		reads := make([][]byte, len(o.ReadSet))
		for i, x := range o.ReadSet {
			reads[i] = vals[x]
		}
		return reg.Apply(o, reads)
	}
	// Newest two tables are not an oldest suffix.
	if _, err := compact("lsm/t/s00000003", "lsm/t/s00000002", "lsm/t/s00000001"); err == nil {
		t.Error("non-suffix compaction accepted")
	}
	// Wrong output id.
	if _, err := compact("lsm/t/s00000009", "lsm/t/s00000001", "lsm/t/s00000000"); err == nil {
		t.Error("wrong output id accepted")
	}
	// Correct oldest suffix works and drops nothing (keep > 0 keeps tombstones).
	writes, err := compact("lsm/t/s00000003", "lsm/t/s00000001", "lsm/t/s00000000")
	if err != nil {
		t.Fatal(err)
	}
	gotMan, err := decodeManifest(writes[0]) // the manifest sorts first in the writeset
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMan.tables) != 2 || gotMan.tables[0] != "lsm/t/s00000002" || gotMan.tables[1] != "lsm/t/s00000003" {
		t.Errorf("post-compact manifest: %+v", gotMan)
	}
	if gotMan.next != 4 {
		t.Errorf("post-compact next = %d", gotMan.next)
	}
}
