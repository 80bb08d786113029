package cache

import (
	"logicallog/internal/graph"
	"logicallog/internal/op"
	"logicallog/internal/wal"
)

// This file is the standby side of log shipping (internal/ship): mirroring
// the primary's installation schedule from its install/flush records.
//
// A warm standby applies the primary's operation records through the normal
// redo machinery, so its cache, write graph, and pending (rSI) bookkeeping
// track the primary's exactly — records arrive strictly in LSN order, and an
// install record was appended on the primary in the same engine critical
// section as the flush it describes, so at the moment the record is applied
// here the standby's cached value of every flushed object equals the value
// the primary flushed (the InstallNode invariant: the last writer of each
// var is in the installed node).  Mirroring therefore flushes *cached*
// standby state, never shipped values; logical operations were replayed
// against the standby's own recoverable state to produce it.
//
// Objects whose updates were skipped at bootstrap (the backup image already
// carried them, vSI witness) are simply absent from the cache and the write
// graph; mirroring skips them — the stable store is already current.

// MirrorInstall applies a primary install record to the standby: it derives
// the installation step's inputs from the record — the write-graph nodes
// holding the record's operations, the flushed objects, the unflushed (Notx)
// objects — and runs the same step the primary ran, log force included.
//
// The nodes are minimal here whenever they were minimal on the primary: the
// standby applied the same operation prefix, so every edge it derives also
// exists on the primary (bootstrap skips can only remove edges).
func (m *Manager) MirrorInstall(rec *wal.InstallRecord) error {
	var nodes []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	for _, lsn := range rec.Ops {
		if id, ok := m.wg.NodeOfOp(lsn); ok && !seen[id] {
			seen[id] = true
			nodes = append(nodes, id)
		}
	}
	var flush []op.ObjectID
	for _, f := range rec.Flushed {
		if _, ok := m.lookup(f.ID); ok { // else bootstrap-skipped: stable store already current
			flush = append(flush, f.ID)
		}
	}
	notx := make([]op.ObjectID, len(rec.Unflushed))
	for i, u := range rec.Unflushed {
		notx[i] = u.ID
	}
	_, err := m.install(nodes, flush, notx)
	return err
}

// MirrorFlush applies a primary flush record — the single-object, no-Notx
// special case of an install — to the standby.
func (m *Manager) MirrorFlush(rec *wal.FlushRecord) error {
	e, ok := m.lookup(rec.Object)
	if !ok {
		return nil // bootstrap-skipped: stable store already current
	}
	id, ok := m.wg.NodeOfOp(e.vsi)
	if !ok {
		return nil // all writers of the object were skipped at bootstrap
	}
	_, err := m.install([]graph.NodeID{id}, []op.ObjectID{rec.Object}, nil)
	return err
}
