// Package backup implements fuzzy backups and media recovery, the extension
// the paper defers to its reference [10] ("Media Recovery When Using Logical
// Log Operations").
//
// A fuzzy backup copies the stable database object by object while normal
// execution — including installs that reorder object states — continues.
// The copy is therefore not action-consistent: different objects reflect
// different moments.  Media recovery makes it consistent the same way crash
// recovery makes the stable database consistent: restore the backup as the
// stable state and replay the log from the backup's start horizon with the
// standard REDO machinery.  The vSI stored with each backed-up object makes
// the replay skip exactly the operations each object already reflects.
//
// The one constraint a fuzzy backup adds (as [10] discusses) is on log
// truncation: the log must retain every record from the backup's start
// horizon onward until the backup is superseded, because the backup's older
// object states need older log records than the live stable database does.
// BackupSet.MinRetainLSN reports that horizon.
package backup

import (
	"fmt"

	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// Backup is one fuzzy backup of a stable store.
type Backup struct {
	// StartLSN is the durable log horizon when the copy began; media
	// recovery replays from here.
	StartLSN op.SI
	// EndLSN is the horizon when the copy finished (diagnostics).
	EndLSN op.SI
	// Objects is the fuzzy object copy (values with their vSIs).
	Objects map[op.ObjectID]stable.Versioned
}

// Take copies the engine's stable store object by object.  interleave, when
// non-nil, is invoked between object copies so tests and simulations can run
// normal execution (updates, installs, checkpoints) mid-backup — that is
// what makes the backup fuzzy.
func Take(eng *core.Engine, interleave func(copied int) error) (*Backup, error) {
	// The replay origin is the engine's recovery horizon, not just the
	// durable log horizon: an operation logged before the backup began
	// but still uninstalled is in neither the image nor a replay from
	// StableLSN+1, so the origin must reach back to the earliest dirty
	// rSI.  Each copied object's vSI keeps the longer replay exact.
	start, err := eng.RecoveryHorizon()
	if err != nil {
		return nil, err
	}
	b := &Backup{
		StartLSN: start,
		Objects:  make(map[op.ObjectID]stable.Versioned),
	}
	for i, id := range eng.Store().IDs() {
		v, err := eng.Store().Read(id)
		if err != nil {
			// The object vanished mid-backup (installed delete): skip it;
			// replay of the delete is a no-op for a missing object.
			continue
		}
		b.Objects[id] = v
		if interleave != nil {
			if err := interleave(i + 1); err != nil {
				return nil, err
			}
		}
	}
	b.EndLSN = eng.Log().StableLSN()
	return b, nil
}

// MinRetainLSN returns the earliest log record media recovery from this
// backup could need; the log must not be truncated past it while the backup
// is the restore point.
func (b *Backup) MinRetainLSN() op.SI { return b.StartLSN }

// RegisterRetention pins the log's truncation floor at the backup's horizon
// (see wal.Log.RegisterRetention) so a checkpoint can never strand the
// backup.  Call the returned release once the backup is superseded.
func (b *Backup) RegisterRetention(l *wal.Log) (release func()) {
	return l.RegisterRetention(b.MinRetainLSN)
}

// MediaRecover rebuilds a database from the backup plus the surviving log:
// it restores the backup image into the engine's stable store and has the
// engine redo the log from the backup horizon over it
// (core.Engine.RecoverMedia), so the engine serves the recovered state.
// The live stable store is assumed lost (that is the media failure).
func MediaRecover(eng *core.Engine, b *Backup) (*recovery.Result, error) {
	if eng.Log().FirstLSN() > b.StartLSN {
		return nil, fmt.Errorf("backup: log truncated to %d, backup needs %d",
			eng.Log().FirstLSN(), b.StartLSN)
	}
	eng.Store().Restore(b.Objects)
	return eng.RecoverMedia(b.StartLSN)
}
