// Package lsm implements a recoverable log-structured merge tree, the
// second database-domain of the paper's "new domains" program: the memtable,
// the manifest, and every SSTable are recoverable engine objects, point
// writes are physiological single-object operations, and the two structural
// operations — memtable Flush and SSTable Compact — are registered *logical*
// operations whose read sets span the objects they derive from.
//
// A flush reads {manifest, memtable} and writes {manifest, memtable, new
// SSTable}: the new table's contents come entirely from the memtable, so the
// log record carries only object ids.  A compaction reads {manifest, input
// SSTables...} and writes {manifest, output SSTable}: the merged table is a
// pure function of its inputs, exactly the multi-object logical-operation
// shape (an operation that *reads* other recoverable objects) the paper's
// redo machinery is built to replay.  The driver deletes the superseded
// input tables immediately after the compaction commits, mirroring how a
// real LSM returns files to the allocator; recovery handles replaying a
// compaction whose inputs are deleted later in the log via the same
// void/skip analysis that covers every other read-then-delete pattern.
//
// The same code runs unchanged on an engine configured with
// core.Options.Physiological, which lowers flush and compaction to physical
// writes of the produced tables — the comparison baseline in which the log
// carries the full merged contents.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"logicallog/internal/op"
)

// Function ids registered by Register.
const (
	// FuncMemPut is the physiological memtable upsert: params (key, tag,
	// val), reads and writes the memtable only.
	FuncMemPut op.FuncID = "lsm.memput"
	// FuncFlush is the logical memtable flush: params (manifest, mem,
	// newSST); reads {manifest, mem}, writes {manifest, mem, newSST}.
	FuncFlush op.FuncID = "lsm.flush"
	// FuncCompact is the logical compaction: params (manifest, out,
	// inputs...); reads {manifest, inputs...}, writes {manifest, out}.
	FuncCompact op.FuncID = "lsm.compact"
)

// Entry tags.
const (
	tagValue     byte = 0
	tagTombstone byte = 1
)

// Register installs the LSM transformations on a registry.
func Register(reg *op.Registry) {
	reg.Register(FuncMemPut, fnMemPut)
	reg.Register(FuncFlush, fnFlush)
	reg.Register(FuncCompact, fnCompact)
}

// entry is one key in a memtable or SSTable.
type entry struct {
	key []byte
	tag byte // tagValue or tagTombstone
	val []byte
}

// encodeTable serializes a sorted entry list (memtable or SSTable value).
func encodeTable(es []entry) []byte {
	fields := make([][]byte, 0, 3*len(es))
	for _, e := range es {
		fields = append(fields, e.key, []byte{e.tag}, e.val)
	}
	return op.EncodeParams(fields...)
}

// decodeTable parses a memtable or SSTable value.
func decodeTable(v []byte) ([]entry, error) {
	fields, err := op.DecodeParams(v)
	if err != nil {
		return nil, fmt.Errorf("lsm: corrupt table: %w", err)
	}
	if len(fields)%3 != 0 {
		return nil, fmt.Errorf("lsm: table with %d fields", len(fields))
	}
	es := make([]entry, 0, len(fields)/3)
	for i := 0; i < len(fields); i += 3 {
		if len(fields[i+1]) != 1 {
			return nil, fmt.Errorf("lsm: bad entry tag")
		}
		es = append(es, entry{key: fields[i], tag: fields[i+1][0], val: fields[i+2]})
	}
	return es, nil
}

// manifest tracks the table set: ids newest-first, plus the allocation
// counter for the next table number.
type manifest struct {
	next   uint64
	tables []op.ObjectID // newest first
}

func encodeManifest(m *manifest) []byte {
	var next [8]byte
	binary.BigEndian.PutUint64(next[:], m.next)
	fields := make([][]byte, 0, 1+len(m.tables))
	fields = append(fields, next[:])
	for _, id := range m.tables {
		fields = append(fields, []byte(id))
	}
	return op.EncodeParams(fields...)
}

func decodeManifest(v []byte) (*manifest, error) {
	fields, err := op.DecodeParams(v)
	if err != nil || len(fields) == 0 || len(fields[0]) != 8 {
		return nil, fmt.Errorf("lsm: corrupt manifest: %v", err)
	}
	m := &manifest{next: binary.BigEndian.Uint64(fields[0])}
	for _, f := range fields[1:] {
		m.tables = append(m.tables, op.ObjectID(f))
	}
	return m, nil
}

// findEntry returns the index of key in the sorted entries and whether it is
// present; if absent, the index is the insertion point.
func findEntry(es []entry, key []byte) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(es[mid].key, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// --- registered transformations --------------------------------------------

// fnMemPut params: EncodeParams(key, tag, val).  Upserts into the sorted
// memtable; a tombstone tag records a delete that masks older tables.
func fnMemPut(params []byte, reads map[op.ObjectID][]byte) (map[op.ObjectID][]byte, error) {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 3 || len(fields[1]) != 1 {
		return nil, fmt.Errorf("lsm: memput wants (key, tag, val)")
	}
	if len(reads) != 1 {
		return nil, fmt.Errorf("lsm: memput expected 1 read, got %d", len(reads))
	}
	var id op.ObjectID
	var raw []byte
	for i, v := range reads {
		id, raw = i, v
	}
	es, err := decodeTable(raw)
	if err != nil {
		return nil, err
	}
	e := entry{key: fields[0], tag: fields[1][0], val: fields[2]}
	i, found := findEntry(es, e.key)
	if found {
		es[i] = e
	} else {
		es = append(es, entry{})
		copy(es[i+1:], es[i:])
		es[i] = e
	}
	return map[op.ObjectID][]byte{id: encodeTable(es)}, nil
}

// fnFlush params: EncodeParams(manifestID, memID, newSSTID).  The new
// table's id must match the manifest's allocation counter, so replaying the
// flush against the same pre-state re-derives the same object — nothing but
// ids on the log.
func fnFlush(params []byte, reads map[op.ObjectID][]byte) (map[op.ObjectID][]byte, error) {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) != 3 {
		return nil, fmt.Errorf("lsm: flush wants (manifest, mem, newSST)")
	}
	manID, memID, sstID := op.ObjectID(fields[0]), op.ObjectID(fields[1]), op.ObjectID(fields[2])
	manRaw, ok := reads[manID]
	if !ok {
		return nil, fmt.Errorf("lsm: flush missing manifest %q", manID)
	}
	memRaw, ok := reads[memID]
	if !ok {
		return nil, fmt.Errorf("lsm: flush missing memtable %q", memID)
	}
	man, err := decodeManifest(manRaw)
	if err != nil {
		return nil, err
	}
	es, err := decodeTable(memRaw)
	if err != nil {
		return nil, err
	}
	if len(es) == 0 {
		return nil, fmt.Errorf("lsm: flush of empty memtable")
	}
	if want := tableID(manID, man.next); want != sstID {
		return nil, fmt.Errorf("lsm: flush table id %q, manifest allocates %q", sstID, want)
	}
	man.next++
	man.tables = append([]op.ObjectID{sstID}, man.tables...)
	return map[op.ObjectID][]byte{
		manID: encodeManifest(man),
		memID: encodeTable(nil),
		sstID: append([]byte(nil), memRaw...), // outputs never alias reads
	}, nil
}

// fnCompact params: EncodeParams(manifestID, outID, inputIDs...) with the
// inputs listed newest-first.  The inputs must be a contiguous oldest suffix
// of the manifest's table list; the merged output keeps the newest entry per
// key and, because the suffix reaches the oldest table, drops tombstones for
// good.  The output id must match the manifest's allocation counter.
func fnCompact(params []byte, reads map[op.ObjectID][]byte) (map[op.ObjectID][]byte, error) {
	fields, err := op.DecodeParams(params)
	if err != nil || len(fields) < 4 {
		return nil, fmt.Errorf("lsm: compact wants (manifest, out, inputs...)")
	}
	manID, outID := op.ObjectID(fields[0]), op.ObjectID(fields[1])
	manRaw, ok := reads[manID]
	if !ok {
		return nil, fmt.Errorf("lsm: compact missing manifest %q", manID)
	}
	man, err := decodeManifest(manRaw)
	if err != nil {
		return nil, err
	}
	inputs := make([]op.ObjectID, 0, len(fields)-2)
	for _, f := range fields[2:] {
		inputs = append(inputs, op.ObjectID(f))
	}
	if len(inputs) > len(man.tables) {
		return nil, fmt.Errorf("lsm: compacting %d of %d tables", len(inputs), len(man.tables))
	}
	keep := len(man.tables) - len(inputs)
	for i, id := range inputs {
		if man.tables[keep+i] != id {
			return nil, fmt.Errorf("lsm: compact inputs are not the manifest's oldest tables")
		}
	}
	if want := tableID(manID, man.next); want != outID {
		return nil, fmt.Errorf("lsm: compact output id %q, manifest allocates %q", outID, want)
	}
	// Merge newest-precedence: walk inputs newest-first, first sighting of a
	// key wins.  The map is membership-only; ordering comes from sorting the
	// collected keys, keeping the transformation replay-deterministic.
	merged := make(map[string]entry, 64)
	var keys []string
	for _, id := range inputs {
		raw, ok := reads[id]
		if !ok {
			return nil, fmt.Errorf("lsm: compact missing input %q", id)
		}
		es, err := decodeTable(raw)
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			if _, seen := merged[string(e.key)]; !seen {
				merged[string(e.key)] = e
				keys = append(keys, string(e.key))
			}
		}
	}
	sort.Strings(keys)
	out := make([]entry, 0, len(keys))
	dropTombstones := keep == 0 // suffix reaches the oldest table
	for _, k := range keys {
		e := merged[k]
		if e.tag == tagTombstone && dropTombstones {
			continue
		}
		out = append(out, e)
	}
	man.next++
	man.tables = append(man.tables[:keep:keep], outID)
	return map[op.ObjectID][]byte{
		manID: encodeManifest(man),
		outID: encodeTable(out),
	}, nil
}

// tableID derives the SSTable object id for table number n of the tree whose
// manifest lives at manID ("lsm/<name>/manifest" -> "lsm/<name>/s%08d").
func tableID(manID op.ObjectID, n uint64) op.ObjectID {
	base := string(manID)
	const suffix = "/manifest"
	if len(base) > len(suffix) && base[len(base)-len(suffix):] == suffix {
		base = base[:len(base)-len(suffix)]
	}
	return op.ObjectID(fmt.Sprintf("%s/s%08d", base, n))
}
