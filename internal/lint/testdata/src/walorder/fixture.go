// Package walorder models the write-ahead protocol by name and signature:
// the analyzer keys on Force/ForceThrough methods of a type named Log and
// WriteBatch on a type named Store, so the fixture needs no imports from
// the real module.
package walorder

import "fixture/walorder/sub"

type Log struct{}

func (l *Log) Force() error                  { return nil }
func (l *Log) ForceThrough(lsn uint64) error { return nil }

type Store struct{}

func (s *Store) WriteBatch(recs []int) error { return nil }

// installForced is the canonical clean shape: force, then install.
func installForced(l *Log, s *Store) {
	_ = l.Force()
	_ = s.WriteBatch(nil)
}

// installNaked installs with no force anywhere and no caller that could
// supply one, so the report lands on the install itself.
func installNaked(s *Store) {
	_ = s.WriteBatch(nil) // want "installNaked reaches Store.WriteBatch with no covering"
}

// installMaybeForced forces on only one branch: the must-analysis
// intersection means the install is not dominated by the force.
func installMaybeForced(l *Log, s *Store, sure bool) {
	if sure {
		_ = l.Force()
	}
	_ = s.WriteBatch(nil) // want "installMaybeForced reaches Store.WriteBatch with no covering"
}

// forceAll forces through a helper; callers inherit the fact from its
// summary rather than seeing a direct Force call.
func forceAll(l *Log) error { return l.Force() }

func installViaHelperForce(l *Log, s *Store) {
	_ = forceAll(l)
	_ = s.WriteBatch(nil)
}

// installBatch is the private half of the interprocedural chain: it
// installs without forcing, and the obligation propagates silently to its
// callers because an unexported helper's contract is its callers' problem.
func installBatch(s *Store, recs []int) {
	_ = s.WriteBatch(recs)
}

// Install is the exported boundary carrying the caller-must-have-forced
// contract; unforced call sites are reported here, not inside the helper.
func Install(l *Log, s *Store, recs []int) {
	installBatch(s, recs)
}

func goodCaller(l *Log, s *Store) {
	_ = l.ForceThrough(7)
	Install(l, s, nil)
}

func badCaller(l *Log, s *Store) {
	Install(l, s, nil) // want "call to Install installs to the stable store"
}

// goodMirror and badMirror exercise the same contract across a package
// boundary: sub.MirrorInstall installs without forcing.
func goodMirror(l *sub.Log, s *sub.Store) {
	_ = l.Force()
	sub.MirrorInstall(s, nil)
}

func badMirror(s *sub.Store) {
	sub.MirrorInstall(s, nil) // want "call to MirrorInstall installs to the stable store"
}

// retry models the transient-retry helper: the install happens inside a
// function literal handed to it, which inherits the forced state at the call.
func retry(attempt func() error) error { return attempt() }

func installInClosureForced(l *Log, s *Store) {
	_ = l.Force()
	_ = retry(func() error { return s.WriteBatch(nil) })
}

func installInClosureNaked(s *Store) {
	_ = retry(func() error {
		return s.WriteBatch(nil) // want "installInClosureNaked reaches Store.WriteBatch with no covering"
	})
}

// installSuppressed shows the documented escape hatch.
func installSuppressed(s *Store) {
	//lint:ignore walorder fixture: the records are made durable by an out-of-band sync in this scenario
	_ = s.WriteBatch(nil)
}
