package lint

import (
	"go/ast"
	"go/types"
)

// ReplayDeterminism guards bit-identical concurrent redo: recovery,
// write-graph, installation-graph, and digraph code must not let map
// iteration order, wall-clock time, or an unseeded global RNG feed replay
// ordering, chain partitioning, edge insertion, or flush-set construction.
// Every map range in those packages is reported; iteration whose result is
// provably order-independent (commutative folds, set construction later
// canonicalized) is documented in place with //lint:ignore.
var ReplayDeterminism = &Analyzer{
	Name: "replaydeterminism",
	Doc: "flags nondeterminism sources (map range, time.Now, global math/rand) " +
		"in replay-ordering code; redo replay must be bit-identical whoever replays each chain",
	Match: matchSuffix(
		"internal/recovery",
		"internal/writegraph",
		"internal/installgraph",
		"internal/graph",
	),
	Run: runReplayDeterminism,
}

func runReplayDeterminism(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(),
						"range over map %s iterates in nondeterministic order; "+
							"sort a snapshot of the keys, or justify order-independence with //lint:ignore",
						types.ExprString(n.X))
				}
			case *ast.CallExpr:
				obj := calleeObject(p.Info, n)
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if obj.Name() == "Now" && isPackageFunc(obj) {
						p.Reportf(n.Pos(),
							"time.Now in replay-ordering code makes recovery runs diverge; "+
								"thread timestamps in from the caller")
					}
				case "math/rand", "math/rand/v2":
					if isPackageFunc(obj) && !allowedRandFunc(obj.Name()) {
						p.Reportf(n.Pos(),
							"%s.%s draws from the global (unseeded) RNG; "+
								"use an explicitly seeded *rand.Rand",
							obj.Pkg().Name(), obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// isPackageFunc reports whether obj is a package-level function (methods on
// *rand.Rand, for example, carry an explicit seed and are fine).
func isPackageFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// allowedRandFunc lists math/rand package functions that construct explicit
// sources rather than drawing from the global one.
func allowedRandFunc(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
		return true
	}
	return false
}
