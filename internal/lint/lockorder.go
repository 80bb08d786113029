package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockOrder enforces the documented lock acquisition order between the
// engine mutex facade, the cache manager's locks, the cache and stable table
// locks, and the WAL mutexes, and requires every Lock/RLock in a function to
// have a matching (usually deferred) Unlock/RUnlock somewhere in the same
// function.
//
// The documented order (outermost first; a function must never acquire a
// lock of equal or lower rank while holding one of higher or equal rank):
//
//  1. core.Engine.mu          — engine mutex facade
//  2. cache.Manager.wgMu      — write-graph guard
//  3. cache.Manager.tableMu   — dirty object table
//  4. stable.Store.batchMu    — stable batch serialization
//  5. stable.Store.mu         — stable object map
//  6. wal.Log.mu              — log mutex
//  7. wal.Log.laneMu          — WAL append lane
//
// The check is intraprocedural and statement-ordered: it sees acquisitions
// nested within one function body, which is where ordering bugs between the
// table locks and the facades can actually be written.  Cross-function
// holding is covered by the ranks' package layering (core calls cache calls
// stable/wal, never backwards).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "verifies the engine/cache/stable/wal lock acquisition order and " +
		"that every Lock has a paired Unlock in the same function",
	Run: runLockOrder,
}

// lockClass identifies one ranked lock by declaring struct type and field.
type lockClass struct {
	typeName  string
	fieldName string
	rank      int
	desc      string
}

// lockRanks is the documented order, outermost (lowest rank) first.  The
// classes are matched by struct-type and field name so the analysistest
// fixtures can replicate them without importing the real packages.
var lockRanks = []lockClass{
	{"Engine", "mu", 1, "core.Engine.mu (engine mutex facade)"},
	{"Manager", "wgMu", 2, "cache.Manager.wgMu"},
	{"Manager", "tableMu", 3, "cache.Manager.tableMu (dirty object table)"},
	{"Store", "batchMu", 4, "stable.Store.batchMu"},
	{"Store", "mu", 5, "stable.Store.mu (object map)"},
	{"Log", "mu", 6, "wal.Log.mu"},
	{"Log", "laneMu", 7, "wal.Log.laneMu (append lane)"},
}

func classOf(typeName, fieldName string) *lockClass {
	for i := range lockRanks {
		c := &lockRanks[i]
		if c.typeName == typeName && c.fieldName == fieldName {
			return c
		}
	}
	return nil
}

// lockEvent is one mutex operation in source order within a function.
type lockEvent struct {
	recv     string // receiver expression, e.g. "e.mu" or "sh.mu"
	method   string // Lock, RLock, Unlock, RUnlock
	pos      ast.Node
	class    *lockClass // nil when the mutex is not a ranked class
	deferred bool
}

func runLockOrder(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunction(p, fd)
		}
	}
	return nil
}

func checkFunction(p *Pass, fd *ast.FuncDecl) {
	events := collectLockEvents(p, fd.Body)
	if len(events) == 0 {
		return
	}
	checkPairing(p, fd, events)
	checkOrdering(p, events)
}

// collectLockEvents walks body in lexical order, recording every
// (R)Lock/(R)Unlock call on a sync.Mutex or sync.RWMutex.
func collectLockEvents(p *Pass, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	record := func(call *ast.CallExpr, deferred bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		method := sel.Sel.Name
		switch method {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return
		}
		if !isSyncMutex(p.Info.TypeOf(sel.X)) {
			return
		}
		ev := lockEvent{
			recv:     types.ExprString(sel.X),
			method:   method,
			pos:      call,
			deferred: deferred,
		}
		if recvSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if field, owner := fieldSelection(p.Info, recvSel); field != nil {
				ev.class = classOf(owner, field.Name())
			}
		}
		events = append(events, ev)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			record(n, false)
		case *ast.DeferStmt:
			record(n.Call, true)
			return false // the record above already covers the deferred call
		case *ast.FuncLit:
			return false // closures are separate control flow; skip
		}
		return true
	})
	return events
}

// checkPairing reports Lock/RLock calls with no matching Unlock/RUnlock on
// the same receiver expression anywhere in the function.
func checkPairing(p *Pass, fd *ast.FuncDecl, events []lockEvent) {
	releasedBy := map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}
	for _, acq := range events {
		rel, isAcquire := releasedBy[acq.method]
		if !isAcquire {
			continue
		}
		paired := false
		for _, e := range events {
			if e.method == rel && e.recv == acq.recv {
				paired = true
				break
			}
		}
		if !paired {
			p.Reportf(acq.pos.Pos(),
				"%s.%s() has no matching %s in %s; a panic or early return leaks the lock "+
					"(prefer defer %s.%s())",
				acq.recv, acq.method, rel, fd.Name.Name, acq.recv, rel)
		}
	}
}

// checkOrdering walks the events in source order tracking which ranked
// locks are held and reports acquisitions that violate the documented rank
// order.  Deferred releases run at function exit, so they never release
// during the walk.
func checkOrdering(p *Pass, events []lockEvent) {
	type held struct {
		recv  string
		class *lockClass
	}
	var holding []held
	release := func(recv string) {
		for i := len(holding) - 1; i >= 0; i-- {
			if holding[i].recv == recv {
				holding = append(holding[:i], holding[i+1:]...)
				return
			}
		}
	}
	for _, e := range events {
		switch e.method {
		case "Unlock", "RUnlock":
			if !e.deferred {
				release(e.recv)
			}
		case "Lock", "RLock":
			if e.class == nil {
				continue
			}
			for _, h := range holding {
				if h.recv == e.recv {
					continue
				}
				if h.class.rank >= e.class.rank {
					p.Reportf(e.pos.Pos(),
						"acquiring %s (rank %d) while holding %s (rank %d) violates the "+
							"documented lock order %s",
						e.class.desc, e.class.rank, h.class.desc, h.class.rank, documentedOrder())
				}
			}
			holding = append(holding, held{recv: e.recv, class: e.class})
		}
	}
}

func isSyncMutex(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

func documentedOrder() string {
	s := ""
	for i, c := range lockRanks {
		if i > 0 {
			s += " < "
		}
		s += fmt.Sprintf("%s.%s", c.typeName, c.fieldName)
	}
	return s
}
