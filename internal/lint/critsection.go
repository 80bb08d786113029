package lint

import (
	"go/ast"
)

// CritSection proves critical sections close: every mutex acquisition
// reaches a matching release on all paths out of the function —
// early returns, fallthrough, and explicit panics included — with defers
// recognized as covering every later exit.  The check is interprocedural
// through acquire/release helper pairs (striped-lock helpers such as a
// lockAll/unlockAll sweep): a function whose every exit holds the
// same non-empty lock set is classified as an acquire helper and checked at
// its call sites instead, where the matching release helper must appear on
// all paths.
//
// The analyzer reports three shapes:
//
//   - a lock acquired on a path that reaches a return without releasing it
//     while other exits do release — the classic early-return leak;
//   - an explicit panic() while holding a lock with no defer covering it;
//   - an acquire-helper call whose acquired locks are not released before
//     some exit of the caller (the helper's summary injects the held keys
//     into the caller's walk, so the leak surfaces in the caller).
var CritSection = &Analyzer{
	Name: "critsection",
	Doc: "verifies every mutex acquisition reaches a release on all paths " +
		"(early returns and panics included, defer-aware), interprocedurally " +
		"through acquire/release helper pairs",
	Run: runCritSection,
}

func runCritSection(p *Pass) error {
	prog := p.program()
	prog.Resolve()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCritSection(p, prog, fd)
		}
	}
	return nil
}

func checkCritSection(p *Pass, prog *Program, fd *ast.FuncDecl) {
	fi := prog.funcInfoForDecl(p.pkg(), fd)
	if fi == nil {
		return
	}
	lw := analyzeLocks(prog, fi)

	// Explicit panics holding uncovered locks are always reported.
	for _, pe := range lw.panics {
		p.Reportf(pe.pos.Pos(),
			"panic while holding %s with no deferred release; the lock leaks and "+
				"every later acquirer deadlocks", exitDesc(pe.held))
	}

	if len(lw.exits) == 0 {
		return
	}
	// Uniform exits (all holding the same set) are either balanced — nothing
	// to report — or an acquire helper, whose obligation the summary moves to
	// every call site: the helper's NetAcquires keys are injected into each
	// caller's walk, so a caller that misses the release helper is reported
	// here when that caller is analyzed.
	_, _, consistent := lw.netEffect()
	if consistent {
		return
	}
	// Inconsistent exits: some path leaks what another path releases.
	// Report each exit holding locks that the leanest exit has released.
	min := lw.exits[0].held
	for _, e := range lw.exits[1:] {
		if len(e.held) < len(min) {
			min = e.held
		}
	}
	for _, e := range lw.exits {
		for k := range e.held {
			if _, ok := min[k]; ok {
				continue
			}
			p.Reportf(e.pos.Pos(),
				"%s acquired in %s is not released on this path; other paths release "+
					"it, so this return leaks the lock (prefer defer, or release before "+
					"every return)", k, fd.Name.Name)
		}
	}
}
