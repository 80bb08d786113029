// Package logicallog is a redo-recovery engine built on logical logging, a
// from-scratch implementation of Lomet & Tuttle, "Logical Logging to Extend
// Recovery to New Domains" (SIGMOD 1999).
//
// A DB stores opaque byte values under string ids and makes them crash-
// recoverable through a write-ahead log.  Updates are *operations*: besides
// physical writes (value on the log) and physiological updates (one object,
// transformed by a registered function), the engine supports fully logical
// operations that read any set of recoverable objects and write any other —
// logging only ids, function names, and parameters.  For large objects
// (files, application states) this reduces logging cost by orders of
// magnitude; the engine's refined write graph (rW), cache-manager identity
// writes, and generalized recovery-SI REDO test keep the stable database
// recoverable despite the resulting flush-order dependencies.
//
// Basic use:
//
//	db, _ := logicallog.Open(logicallog.DefaultOptions())
//	db.Create("greeting", []byte("hello"))
//	db.RegisterFunc("shout", func(params []byte, reads map[string][]byte) (map[string][]byte, error) {
//		return map[string][]byte{"loud": append(reads["greeting"], params...)}, nil
//	})
//	db.ApplyLogical("shout", []byte("!!!"), []string{"greeting"}, []string{"loud"})
//	db.Flush()
//
// After a crash, Open the DB over the same log device and call Recover.
package logicallog

import (
	"fmt"

	"logicallog/internal/cache"
	"logicallog/internal/core"
	"logicallog/internal/op"
	"logicallog/internal/recovery"
	"logicallog/internal/wal"
	"logicallog/internal/writegraph"
)

// WriteGraphPolicy selects how flush-order dependencies are tracked.
type WriteGraphPolicy uint8

const (
	// RefinedWriteGraph is the paper's rW: unexposed objects leave atomic
	// flush sets, enabling single-object flushing.  The default.
	RefinedWriteGraph WriteGraphPolicy = iota
	// ClassicWriteGraph is the write graph W of Lomet & Tuttle 1995:
	// flush sets only grow.  Provided for comparison.
	ClassicWriteGraph
)

// FlushStrategy selects how multi-object atomic flush sets are handled.
type FlushStrategy uint8

const (
	// IdentityWriteBreakup peels objects out of atomic flush sets with
	// cache-manager identity writes (the paper's Section 4).  The default.
	IdentityWriteBreakup FlushStrategy = iota
	// ShadowFlush writes multi-object sets atomically via shadowing.
	ShadowFlush
	// FlushTransaction writes multi-object sets atomically via a flush
	// transaction (log values, commit, update in place).
	FlushTransaction
)

// RedoTest selects the recovery-time REDO predicate.
type RedoTest uint8

const (
	// GeneralizedRSI combines the installed test with an exposed test via
	// generalized recovery SIs (the paper's Section 5).  The default.
	GeneralizedRSI RedoTest = iota
	// ClassicVSI is the traditional state-identifier test.
	ClassicVSI
	// RedoAll replays every logged operation (safe only for physical-write
	// logs; replays are trial executions that void on error).
	RedoAll
)

// Options configures a DB.
type Options struct {
	// WriteGraph selects the flush-dependency tracking policy.
	WriteGraph WriteGraphPolicy
	// Strategy selects the multi-object flush mechanism.
	Strategy FlushStrategy
	// RedoTest selects the recovery REDO predicate.
	RedoTest RedoTest
	// LogInstallRecords enables installation/flush records, which let the
	// recovery analysis pass advance recovery SIs and shorten redo.
	LogInstallRecords bool
	// Physiological lowers every logical operation to physical form before
	// logging (values materialized onto the log) — the traditional design,
	// provided as a comparison baseline.
	Physiological bool
	// LogPath, when non-empty, backs the write-ahead log with a file so
	// the database survives process restarts; empty means in-memory.
	LogPath string
}

// DefaultOptions returns the paper's recommended configuration.
func DefaultOptions() Options {
	return Options{
		WriteGraph:        RefinedWriteGraph,
		Strategy:          IdentityWriteBreakup,
		RedoTest:          GeneralizedRSI,
		LogInstallRecords: true,
	}
}

// Transform is a deterministic user transformation: given the logged
// parameters and the current values of the operation's read set, it returns
// the new values of the write set.  It must be pure — recovery re-executes
// it against recovering state.
type Transform func(params []byte, reads map[string][]byte) (map[string][]byte, error)

// DB is a recoverable object store.  DB methods are not safe for concurrent
// use; callers serialize access (the engine models recovery ordering, not
// latching).
type DB struct {
	eng *core.Engine
	dev wal.Device
}

// Open creates a DB from options.  If LogPath names an existing log file,
// call Recover before issuing operations.
func Open(opts Options) (*DB, error) {
	copts := core.Options{
		LogInstalls:   opts.LogInstallRecords,
		Physiological: opts.Physiological,
	}
	switch opts.WriteGraph {
	case RefinedWriteGraph:
		copts.Policy = writegraph.PolicyRW
	case ClassicWriteGraph:
		copts.Policy = writegraph.PolicyW
	default:
		return nil, fmt.Errorf("logicallog: unknown write graph policy %d", opts.WriteGraph)
	}
	switch opts.Strategy {
	case IdentityWriteBreakup:
		copts.Strategy = cache.StrategyIdentityWrite
	case ShadowFlush:
		copts.Strategy = cache.StrategyShadow
	case FlushTransaction:
		copts.Strategy = cache.StrategyFlushTxn
	default:
		return nil, fmt.Errorf("logicallog: unknown flush strategy %d", opts.Strategy)
	}
	switch opts.RedoTest {
	case GeneralizedRSI:
		copts.RedoTest = recovery.TestRSI
	case ClassicVSI:
		copts.RedoTest = recovery.TestVSI
	case RedoAll:
		copts.RedoTest = recovery.TestRedoAll
	default:
		return nil, fmt.Errorf("logicallog: unknown redo test %d", opts.RedoTest)
	}
	if copts.Policy == writegraph.PolicyW && copts.Strategy == cache.StrategyIdentityWrite {
		// Identity breakup needs rW; fall back to the shadow mechanism.
		copts.Strategy = cache.StrategyShadow
	}
	db := &DB{}
	if opts.LogPath != "" {
		dev, err := wal.OpenFileDevice(opts.LogPath)
		if err != nil {
			return nil, err
		}
		copts.LogDevice = dev
		db.dev = dev
	}
	eng, err := core.New(copts)
	if err != nil {
		return nil, err
	}
	db.eng = eng
	return db, nil
}

// Close releases the log device (no implicit flush: call Flush first if the
// cache must reach the stable store).
func (db *DB) Close() error {
	if db.dev != nil {
		return db.dev.Close()
	}
	return nil
}

// Engine exposes the underlying engine for in-module substrates (B-tree,
// application recovery, file system) and experiments.
func (db *DB) Engine() *core.Engine { return db.eng }

// RegisterFunc installs a named deterministic transformation for use with
// Update and ApplyLogical.  Registering the same name twice panics.
func (db *DB) RegisterFunc(name string, fn Transform) {
	db.eng.Registry().Register(op.FuncID(name), func(params []byte, a *op.Args) error {
		rs := a.ReadSet()
		in := make(map[string][]byte, len(rs))
		for _, x := range rs {
			in[string(x)] = a.Read(x)
		}
		out, err := fn(params, in)
		if err != nil {
			return err
		}
		// Each key fills its own slot, so the order is immaterial; a key
		// outside the write set voids the operation whichever comes first.
		for k, v := range out {
			a.Write(op.ObjectID(k), v)
		}
		return nil
	})
}

// Create brings an object into existence with an initial value (a physical
// operation: the value is logged).
func (db *DB) Create(id string, v []byte) error {
	return db.eng.Execute(op.NewCreate(op.ObjectID(id), v))
}

// Set blindly overwrites an object with a logged value (physical write).
func (db *DB) Set(id string, v []byte) error {
	return db.eng.Execute(op.NewPhysicalWrite(op.ObjectID(id), v))
}

// Update applies a registered transformation to a single object, reading
// and writing only it (physiological operation: only fn and params logged).
func (db *DB) Update(id string, fn string, params []byte) error {
	return db.eng.Execute(op.NewPhysioWrite(op.ObjectID(id), op.FuncID(fn), params))
}

// ApplyLogical executes a general logical operation: writeSet <- fn(readSet).
// Only the function name, parameters, and object ids are logged; at recovery
// the inputs are re-read from the recovering database.  This is the class of
// operation the paper makes affordable.
func (db *DB) ApplyLogical(fn string, params []byte, readSet, writeSet []string) error {
	return db.eng.Execute(op.NewLogical(op.FuncID(fn), params, toIDs(readSet), toIDs(writeSet)))
}

// Delete terminates objects.
func (db *DB) Delete(ids ...string) error {
	return db.eng.Execute(op.NewDelete(toIDs(ids)...))
}

// Get returns an object's current value.
func (db *DB) Get(id string) ([]byte, error) {
	return db.eng.Get(op.ObjectID(id))
}

// Flush installs every logged operation into the stable database, honoring
// write-graph order (full cache purge).
func (db *DB) Flush() error { return db.eng.FlushAll() }

// FlushOne installs one minimal write-graph node (incremental cache
// pressure); a no-op when nothing is uninstalled.
func (db *DB) FlushOne() error { return db.eng.InstallOne() }

// Checkpoint writes a checkpoint record and truncates the log before the
// earliest record still needed for recovery.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Sync forces the write-ahead log (operations become durable without being
// installed).
func (db *DB) Sync() error { return db.eng.Log().Force() }

// Crash simulates a crash: volatile state and the unforced log tail are
// lost.  Testing hook.
func (db *DB) Crash() { db.eng.Crash() }

// RecoveryReport summarizes a recovery run.
type RecoveryReport struct {
	// RedoStart is the LSN the redo scan started at.
	RedoStart uint64
	// OpsScanned, Redone, SkippedInstalled, SkippedUnexposed, Voided count
	// redo-pass decisions.
	OpsScanned, Redone, SkippedInstalled, SkippedUnexposed, Voided int
}

// Recover runs crash recovery (analysis + redo) and resumes operation on
// the recovered state.
func (db *DB) Recover() (RecoveryReport, error) {
	res, err := db.eng.Recover()
	if err != nil {
		return RecoveryReport{}, err
	}
	return RecoveryReport{
		RedoStart:        uint64(res.RedoStart),
		OpsScanned:       res.ScannedOps,
		Redone:           res.Redone,
		SkippedInstalled: res.SkippedInstalled,
		SkippedUnexposed: res.SkippedUnexposed,
		Voided:           res.Voided,
	}, nil
}

// Stats reports cumulative engine counters.
type Stats struct {
	// LogBytesAppended is the total framed bytes appended to the log.
	LogBytesAppended int64
	// LogValueBytes counts logged data values (what logical ops avoid).
	LogValueBytes int64
	// ObjectWrites counts stable-store object writes.
	ObjectWrites int64
	// IdentityWrites counts cache-manager-initiated W_IP operations.
	IdentityWrites int64
	// Installs counts write-graph node installations.
	Installs int64
	// InstalledNotFlushed counts objects installed without being flushed.
	InstalledNotFlushed int64
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	s := db.eng.Stats()
	return Stats{
		LogBytesAppended:    s.Log.BytesAppended,
		LogValueBytes:       s.Log.ValueBytes,
		ObjectWrites:        s.Store.ObjectWrites,
		IdentityWrites:      s.Cache.IdentityWrites,
		Installs:            s.Cache.Installs,
		InstalledNotFlushed: s.Cache.InstalledNotFlushed,
	}
}

func toIDs(ss []string) []op.ObjectID {
	out := make([]op.ObjectID, len(ss))
	for i, s := range ss {
		out[i] = op.ObjectID(s)
	}
	return out
}
