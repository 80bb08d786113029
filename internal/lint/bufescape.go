// The bufescape analyzer: dataflow escape analysis for the two families of
// byte memory the engine recycles underneath its callers.
//
// Inside the wal package ("lane mode"), arena frames and the carrier values
// that hold them (laneRec, chunk) alias recyclable arena chunks: they are
// valid only inside the lane lock region and until the force path copies
// them into the staging buffer (stageThrough).  Any function outside the
// small lane API that retains such memory — stores it into a field, global,
// map, or channel, directly or by passing it to a callee whose summary says
// it stores its parameter — is reported.
//
// Everywhere else ("record mode"), memory reached through a decoded
// wal.Record (rec.Op, rec.Payload, recs[i]...) aliases the scanner's
// immutable snapshot.  Retaining it is legal; *mutating* it is not.  The
// syntactic logrecpurity analyzer already catches direct writes
// (rec.Op[0] = x); bufescape catches what it cannot: mutation through helper
// calls and local aliases (tmp := rec.Op; scrub(tmp)), using callee
// MutatesParam summaries.
package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

var BufEscape = &Analyzer{
	Name: "bufescape",
	Doc: "proves arena/lane byte slices never escape the lane lock region or " +
		"staging copy, and decoded wal.Record memory is never mutated through " +
		"helper calls or local aliases",
	Run: runBufEscape,
}

// laneAPI names the wal functions that legitimately hold or recycle
// arena-backed memory: the lane append, the staging cut (which copies), and
// the arena itself.
var laneAPI = map[string]bool{
	"appendFrame":  true, // arena: produces frames
	"grab":         true, // arena chunk management
	"release":      true,
	"bufferLocked": true, // Log: the lane buffer itself
	"stageThrough": true, // Log: the copy boundary into the staging buffer
}

func runBufEscape(p *Pass) error {
	prog := p.program()
	prog.Resolve()
	laneMode := p.Pkg.Name() == "wal"
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := prog.funcInfoForDecl(p.pkg(), fd)
			if fi == nil {
				continue
			}
			if laneMode {
				checkLaneEscape(p, prog, fi)
			} else {
				checkDecodedRecordMutation(p, prog, fi)
			}
		}
	}
	return nil
}

// checkLaneEscape reports arena-backed memory retained past the lane lock
// region in one wal function.
func checkLaneEscape(p *Pass, prog *Program, fi *FuncInfo) {
	if laneAPI[fi.Decl.Name.Name] {
		return
	}
	info := fi.Pkg.Info
	tw := newTaintWalker(prog, fi, nil)
	tw.sourceCall = func(call *ast.CallExpr) bool {
		fn, ok := calleeObject(info, call).(*types.Func)
		if !ok || fn.Name() != "appendFrame" {
			return false
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return false
		}
		n := namedOf(sig.Recv().Type())
		return n != nil && n.Obj().Name() == "arena"
	}
	tw.sourceAny = func(e ast.Expr) bool {
		return isLaneCarrier(info.TypeOf(e))
	}
	// Seed lane-carrier parameters too: a helper handed a laneRec holds
	// arena memory just as surely as one that minted it.
	for _, pv := range paramVars(fi) {
		if pv != nil && isLaneCarrier(pv.Type()) {
			tw.tainted[pv] = true
		}
	}
	tw.walk()
	for _, at := range sortedSites(tw.storeSites) {
		p.Reportf(at.Pos(),
			"arena-backed lane memory (a frame, laneRec, or chunk) is retained here; "+
				"frames alias recyclable arena chunks and are invalid past the lane lock "+
				"region — copy the bytes (as stageThrough does) before storing")
	}
	for _, at := range sortedSites(tw.mutateCallSites) {
		p.Reportf(at.Pos(),
			"this call writes through arena-backed lane memory outside the lane API; "+
				"encoded frames are immutable once appended")
	}
}

// isLaneCarrier matches the wal types whose values hold arena-aliased
// memory: laneRec, chunk, and slices/pointers thereof.
func isLaneCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	n := namedOf(t)
	if n == nil {
		return false
	}
	switch n.Obj().Name() {
	case "laneRec", "chunk":
		return true
	}
	return false
}

// checkDecodedRecordMutation reports helper-mediated mutation of decoded-record
// memory in one non-wal function.
func checkDecodedRecordMutation(p *Pass, prog *Program, fi *FuncInfo) {
	info := fi.Pkg.Info
	tw := newTaintWalker(prog, fi, nil)
	tw.sourceAny = func(e ast.Expr) bool {
		// Interior reads of a decoded record: rec.Op, recs[i], (&rec).LSN...
		// A Clone() result is fresh memory by contract, so its interior is
		// not a source even though its type is Record.
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return isRecordType(info.TypeOf(x.X)) && !isCloneCall(info, x.X)
		case *ast.IndexExpr:
			return isRecordType(info.TypeOf(x.X)) && !isCloneCall(info, x.X)
		}
		return false
	}
	// Record-typed and record-slice parameters are decoded snapshots by
	// convention; seed them so aliases of their interiors are tracked.
	for _, pv := range paramVars(fi) {
		if pv != nil && isRecordType(pv.Type()) {
			tw.tainted[pv] = true
		}
	}
	tw.walk()
	for _, at := range sortedSites(tw.mutateCallSites) {
		p.Reportf(at.Pos(),
			"this call mutates memory reached through a decoded wal.Record; decoded "+
				"records alias the scanner's snapshot — Clone the record or copy the "+
				"bytes before writing")
	}
}

// isCloneCall reports whether e is a call to a method named Clone — the
// module's sanctioned copy boundary, whose result is fresh memory.
func isCloneCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeObject(info, call).(*types.Func)
	return ok && fn.Name() == "Clone"
}

// isRecordType matches wal.Record (and the stand-in Record type fixture
// packages declare), behind pointers and slices.
func isRecordType(t types.Type) bool {
	if t == nil {
		return false
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != "Record" {
		return false
	}
	path := n.Obj().Pkg().Path()
	return strings.HasSuffix(path, "internal/wal") || strings.HasPrefix(path, "fixture/")
}

// sortedSites orders report sites by position for deterministic output.
func sortedSites(m map[ast.Node]bool) []ast.Node {
	out := make([]ast.Node, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}
