package lint

import (
	"go/ast"
	"go/types"
)

// ForceCheck enforces the force discipline: the WAL protocol's correctness
// argument assumes every wal.Force/ForceThrough, stable write, and flush
// path error is observed — a dropped force error silently converts "durable"
// into "probably durable", which is exactly the failure mode logical
// recovery cannot repair.  The analyzer flags calls to durability-critical
// methods whose error result is discarded: used as an expression statement,
// assigned to the blank identifier, or launched via go/defer where the
// error can never be seen.
var ForceCheck = &Analyzer{
	Name: "forcecheck",
	Doc: "flags dropped errors from wal.Force/ForceThrough, stable writes, " +
		"and flush paths (expression statements, assignment to _, go/defer)",
	Run: runForceCheck,
}

// forceCriticalMethods are method names whose error return carries a
// durability obligation anywhere in this codebase.
var forceCriticalMethods = map[string]bool{
	"Force":        true,
	"ForceThrough": true,
	"WriteBatch":   true,
	"Flush":        true,
	"FlushAll":     true,
	"FlushOne":     true,
	"PurgeAll":     true,
	"Sync":         true,
	"Truncate":     true,
}

func runForceCheck(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name := forceCriticalCall(p.Info, call); name != "" {
						p.Reportf(call.Pos(),
							"error from %s is dropped; a failed force/flush must abort the "+
								"protocol step that depends on it", name)
					}
				}
			case *ast.GoStmt:
				if name := forceCriticalCall(p.Info, n.Call); name != "" {
					p.Reportf(n.Call.Pos(),
						"error from %s started with go can never be observed", name)
				}
			case *ast.DeferStmt:
				if name := forceCriticalCall(p.Info, n.Call); name != "" {
					p.Reportf(n.Call.Pos(),
						"error from deferred %s can never be observed", name)
				}
			case *ast.AssignStmt:
				checkForceAssign(p, n)
			}
			return true
		})
	}
	return nil
}

// checkForceAssign flags `_ = x.Force()` and `v, _ := store.WriteBatch(...)`
// style assignments where the error result lands in the blank identifier.
func checkForceAssign(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := forceCriticalCall(p.Info, call)
	if name == "" {
		return
	}
	// The error is the last result; with a single call RHS the last LHS
	// receives it.
	last := as.Lhs[len(as.Lhs)-1]
	if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
		p.Reportf(call.Pos(),
			"error from %s is assigned to _; a failed force/flush must abort the "+
				"protocol step that depends on it", name)
	}
}

// forceCriticalCall reports the qualified name of a durability-critical
// method call whose last result is error, or "".
func forceCriticalCall(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || !forceCriticalMethods[fn.Name()] {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "" // only methods carry the obligation; free funcs are out of scope
	}
	if _, errLast := errorIsLastResult(sig); !errLast {
		return ""
	}
	recv := sig.Recv().Type()
	if n := namedOf(recv); n != nil {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
