// Package wal implements the write-ahead log of the recovery system: typed
// log records, a checksummed binary codec, pluggable storage devices, the
// force/crash/truncate lifecycle, and sequential scanning for recovery.
//
// Besides operation records, the log carries the bookkeeping records
// Section 5 of the paper relies on:
//
//   - installation records, written when a write-graph node is installed,
//     naming the flushed objects (vars(n)) and the unexposed objects
//     (Notx(n)) together with their new recovery SIs;
//   - flush records, the physiological special case ("logging object
//     flushes has its origin in recovery lore");
//   - checkpoint records carrying a snapshot of the dirty object table,
//     from which the analysis pass derives the redo scan start point.
package wal

import (
	"fmt"
	"sort"

	"logicallog/internal/op"
)

// RecordType discriminates log records.
type RecordType uint8

const (
	// RecInvalid is never written.
	RecInvalid RecordType = iota
	// RecOperation carries a logged operation (logical, physiological, or
	// physical, per its Kind).
	RecOperation
	// RecInstall records that a write-graph node was installed: its vars
	// were flushed and its Notx objects are installed-without-flushing.
	RecInstall
	// RecFlush records a completed single-object flush (the physiological
	// fast path; lazily logged after the flush).
	RecFlush
	// RecCheckpoint carries a dirty-object-table snapshot.
	RecCheckpoint
)

func (t RecordType) String() string {
	switch t {
	case RecOperation:
		return "op"
	case RecInstall:
		return "install"
	case RecFlush:
		return "flush"
	case RecCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("RecordType(%d)", uint8(t))
}

// ObjectRSI pairs an object with its new recovery state identifier.
type ObjectRSI struct {
	ID  op.ObjectID
	RSI op.SI
}

// InstallRecord describes the installation of one write-graph node
// (Section 5: "we capture these opportunities to advance object rSIs by
// logging the installation of each node n of rW").
type InstallRecord struct {
	// Flushed lists vars(n): objects whose values were atomically written
	// to the stable database, with their advanced rSIs.
	Flushed []ObjectRSI
	// Unflushed lists Notx(n): objects installed without flushing (their
	// pre-crash stable values are stale but unexposed), with their
	// advanced rSIs.  The rSI of an unexposed object is the lSI of the
	// blind write (or delete) that follows it.
	Unflushed []ObjectRSI
	// Ops lists the LSNs of the installed operations, for diagnostics and
	// log-truncation decisions.
	Ops []op.SI
}

// FlushRecord describes a completed single-object flush.
type FlushRecord struct {
	Object op.ObjectID
	// VSI is the state identifier of the flushed value.
	VSI op.SI
}

// DirtyEntry is one row of a checkpointed dirty object table.
type DirtyEntry struct {
	ID op.ObjectID
	// RSI is the lSI of the earliest log record needed to recover the
	// object (ARIES's recovery LSN, generalized).
	RSI op.SI
}

// CheckpointRecord snapshots the dirty object table, as ARIES does ("ARIES
// writes to the log the identities of dirty pages and their rSIs in its
// checkpoint record").
type CheckpointRecord struct {
	Dirty []DirtyEntry
}

// RedoStart returns the earliest rSI among dirty entries, or fallback if the
// table is empty — the redo scan start point.
func (c *CheckpointRecord) RedoStart(fallback op.SI) op.SI {
	if len(c.Dirty) == 0 {
		return fallback
	}
	min := c.Dirty[0].RSI
	for _, d := range c.Dirty[1:] {
		if d.RSI < min {
			min = d.RSI
		}
	}
	return min
}

// Record is one log record.  Exactly one of the payload pointers is non-nil,
// matching Type.
type Record struct {
	LSN        op.SI
	Type       RecordType
	Op         *op.Operation
	Install    *InstallRecord
	Flush      *FlushRecord
	Checkpoint *CheckpointRecord
}

// Validate checks that the record's payload matches its type.
func (r *Record) Validate() error {
	set := 0
	if r.Op != nil {
		set++
	}
	if r.Install != nil {
		set++
	}
	if r.Flush != nil {
		set++
	}
	if r.Checkpoint != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("wal: record must carry exactly one payload, has %d", set)
	}
	switch r.Type {
	case RecOperation:
		if r.Op == nil {
			return fmt.Errorf("wal: operation record without operation")
		}
		return r.Op.Validate()
	case RecInstall:
		if r.Install == nil {
			return fmt.Errorf("wal: install record without payload")
		}
	case RecFlush:
		if r.Flush == nil {
			return fmt.Errorf("wal: flush record without payload")
		}
	case RecCheckpoint:
		if r.Checkpoint == nil {
			return fmt.Errorf("wal: checkpoint record without payload")
		}
	default:
		return fmt.Errorf("wal: invalid record type %v", r.Type)
	}
	return nil
}

// NewOpRecord wraps an operation.
func NewOpRecord(o *op.Operation) *Record { return &Record{Type: RecOperation, Op: o} }

// NewInstallRecord builds an installation record with canonical ordering.
func NewInstallRecord(flushed, unflushed []ObjectRSI, ops []op.SI) *Record {
	sortRSIs(flushed)
	sortRSIs(unflushed)
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return &Record{Type: RecInstall, Install: &InstallRecord{
		Flushed:   flushed,
		Unflushed: unflushed,
		Ops:       ops,
	}}
}

// NewFlushRecord builds a single-object flush record.
func NewFlushRecord(x op.ObjectID, vsi op.SI) *Record {
	return &Record{Type: RecFlush, Flush: &FlushRecord{Object: x, VSI: vsi}}
}

// NewCheckpointRecord builds a checkpoint record with canonical ordering.
func NewCheckpointRecord(dirty []DirtyEntry) *Record {
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].ID < dirty[j].ID })
	return &Record{Type: RecCheckpoint, Checkpoint: &CheckpointRecord{Dirty: dirty}}
}

func sortRSIs(s []ObjectRSI) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}
