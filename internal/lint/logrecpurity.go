package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LogRecPurity protects the aliasing scan decoder: records returned by
// wal.Scanner alias the scanner's immutable snapshot of the log device, so
// any mutation of a decoded record (or of the operation and byte slices
// hanging off it) corrupts what the rest of recovery believes is the
// durable history.  Outside package wal itself, every assignment whose
// left-hand side reaches through a wal.Record is reported.  The redo pass
// replays decoded operations as they are, relying on this check and on
// the transforms' read-only contract; a consumer that must change an
// operation clones it first.
var LogRecPurity = &Analyzer{
	Name: "logrecpurity",
	Doc: "flags mutation of decoded wal.Record values outside package wal; " +
		"scanner records alias the immutable device snapshot",
	Match: func(path string) bool {
		// The producer constructs records freely.
		return !strings.HasSuffix(path, "internal/wal")
	},
	Run: runLogRecPurity,
}

func runLogRecPurity(p *Pass) error {
	// The wal package's own test variant also constructs records; Match
	// filters the driver, but guard here too for direct runs.
	if strings.HasSuffix(p.Pkg.Path(), "internal/wal") {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkRecordMutation(p, lhs)
				}
			case *ast.IncDecStmt:
				checkRecordMutation(p, n.X)
			}
			return true
		})
	}
	return nil
}

// checkRecordMutation reports lhs when the expression chain it writes
// through contains a wal.Record (so rec.LSN = x, rec.Op.Params[i] = b, and
// *rec = wal.Record{} are all caught, while writes to unrelated operations
// are not).
func checkRecordMutation(p *Pass, lhs ast.Expr) {
	if chainContainsRecord(p.Info, lhs) {
		p.Reportf(lhs.Pos(),
			"mutation through a wal.Record; decoded records alias the scanner's "+
				"immutable device snapshot, which redo replays uncopied — change a Clone() instead")
	}
}

// chainContainsRecord is true when e writes *through* a record: a plain
// identifier of record type is only a rebinding and stays legal.
func chainContainsRecord(info *types.Info, e ast.Expr) bool {
	base, ok := mutationBase(ast.Unparen(e))
	if !ok {
		return false
	}
	for {
		base = ast.Unparen(base)
		if isWALRecord(info.TypeOf(base)) {
			return true
		}
		next, ok := mutationBase(base)
		if !ok {
			return false
		}
		base = next
	}
}

// mutationBase steps one level down a selector/index/slice/deref chain.
func mutationBase(e ast.Expr) (ast.Expr, bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.X, true
	case *ast.IndexExpr:
		return x.X, true
	case *ast.SliceExpr:
		return x.X, true
	case *ast.StarExpr:
		return x.X, true
	}
	return nil, false
}

func isWALRecord(t types.Type) bool {
	return typeIs(t, "internal/wal", "Record")
}
