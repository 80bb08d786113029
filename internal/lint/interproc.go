// The interprocedural layer: a module-wide call graph over every loaded
// package, per-function summaries (does this function force the log?  does it
// retain or mutate its parameters?  what locks does it net-acquire or
// net-release?), and a fixed-point propagation pass so analyzers can reason
// across function and package boundaries instead of single files.
//
// Packages are type-checked separately (each with its own go/types universe),
// so functions are keyed by a canonical string — import path, receiver type,
// name — rather than by object identity; a call site in package core resolves
// to the same FuncKey the wal package's own declaration produced.  The layer
// is deliberately flow-light: summaries are computed by a structured walk of
// each body plus a simple intra-function taint/alias pass, then propagated
// around call-graph cycles until they stop changing.  Precision errs toward
// under-reporting (an unknown callee is assumed benign) — the analyzers built
// on top enforce protocol rules where a false positive would train people to
// sprinkle ignores.
package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncKey canonically names one function or method across packages:
// "path.(Recv).Name" for methods, "path.Name" for functions.
type FuncKey string

// funcKeyFor builds the key for a declared or referenced function object.
func funcKeyFor(fn *types.Func) FuncKey {
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return FuncKey(path + ".(" + n.Obj().Name() + ")." + fn.Name())
		}
	}
	return FuncKey(path + "." + fn.Name())
}

// CallSite is one resolved static call inside a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee FuncKey
}

// FuncInfo is one declared function with its body, package, and summary.
type FuncInfo struct {
	Key  FuncKey
	Decl *ast.FuncDecl
	Pkg  *Package
	Sig  *types.Signature
	// Calls are the statically-resolved call sites in body order.
	Calls []CallSite
	// Sum is the function's interprocedural summary after Resolve.
	Sum Summary
}

// Summary is the set of facts propagated across the call graph.
type Summary struct {
	// Forces: the function calls Log.Force/ForceThrough on some path,
	// directly or transitively.
	Forces bool
	// StoresParam[i]: parameter i (a slice, pointer, or reference type) may
	// be retained beyond the call — stored into a field, global, map,
	// channel, or passed to a callee that stores it.  The receiver, when
	// present, is index 0 and value parameters follow.
	StoresParam []bool
	// MutatesParam[i]: the function may write through parameter i (same
	// indexing as StoresParam).
	MutatesParam []bool
	// ReturnsParam[i]: some return value aliases parameter i, so taint
	// flows through the call.
	ReturnsParam []bool
	// NetAcquires are ranked-or-field lock keys held at every exit (an
	// acquire helper, e.g. a lockAll sweep).  Empty for balanced functions.
	NetAcquires map[string]bool
	// NetReleases are lock keys released without a matching acquire in the
	// function (a release helper, e.g. unlockAll).
	NetReleases map[string]bool
}

func (s *Summary) paramBit(which *[]bool, i int) {
	for len(*which) <= i {
		*which = append(*which, false)
	}
	(*which)[i] = true
}

// Program is the module-wide interprocedural view the analyzers consult.
type Program struct {
	Pkgs  []*Package
	Funcs map[FuncKey]*FuncInfo
	// CallersOf maps a callee to every function containing a call to it.
	CallersOf map[FuncKey][]*FuncInfo

	resolved bool

	// walorder's program-wide findings, computed once and emitted by each
	// package's own pass (see walorderFindings).
	walDone     bool
	walFindings []walFinding
}

// BuildProgram indexes every function declaration in pkgs and resolves the
// static call graph.  Summaries are computed lazily by Resolve.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		Funcs:     make(map[FuncKey]*FuncInfo),
		CallersOf: make(map[FuncKey][]*FuncInfo),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:  funcKeyFor(obj),
					Decl: fd,
					Pkg:  pkg,
					Sig:  obj.Type().(*types.Signature),
				}
				// A test variant re-checks the plain sources, so a key can
				// appear twice; the first (plain or variant, load order is
				// deterministic) wins and the duplicate is dropped.
				if _, dup := p.Funcs[fi.Key]; !dup {
					p.Funcs[fi.Key] = fi
				}
			}
		}
	}
	for _, fi := range p.sortedFuncs() {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeObject(fi.Pkg.Info, call).(*types.Func)
			if !ok {
				return true
			}
			key := funcKeyFor(fn)
			fi.Calls = append(fi.Calls, CallSite{Call: call, Callee: key})
			if _, known := p.Funcs[key]; known {
				p.CallersOf[key] = append(p.CallersOf[key], fi)
			}
			return true
		})
	}
	return p
}

// sortedFuncs returns the functions in deterministic key order.
func (p *Program) sortedFuncs() []*FuncInfo {
	keys := make([]string, 0, len(p.Funcs))
	for k := range p.Funcs {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([]*FuncInfo, len(keys))
	for i, k := range keys {
		out[i] = p.Funcs[FuncKey(k)]
	}
	return out
}

// Lookup returns the FuncInfo for a call expression resolved in pkg, or nil
// for indirect calls and functions outside the loaded module.
func (p *Program) Lookup(pkg *Package, call *ast.CallExpr) *FuncInfo {
	fn, ok := calleeObject(pkg.Info, call).(*types.Func)
	if !ok {
		return nil
	}
	return p.Funcs[funcKeyFor(fn)]
}

// maxSummaryRounds bounds fixed-point iteration; summaries are monotone
// (facts only flip false->true, lock sets only grow), so convergence is
// guaranteed well before this.
const maxSummaryRounds = 32

// Resolve computes every function's summary to a fixed point.  Idempotent.
func (p *Program) Resolve() {
	if p.resolved {
		return
	}
	p.resolved = true
	funcs := p.sortedFuncs()
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, fi := range funcs {
			if p.summarize(fi) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// HasReleaseHelper reports whether some function in the program net-releases
// key — the matching half that makes an acquire helper a deliberate pattern
// rather than a leak on every path.
func (p *Program) HasReleaseHelper(key string) bool {
	for _, fi := range p.Funcs {
		if fi.Sum.NetReleases[key] {
			return true
		}
	}
	return false
}

// summarize recomputes one function's summary against the current state of
// its callees' summaries, reporting whether anything changed.
func (p *Program) summarize(fi *FuncInfo) bool {
	old := fi.Sum
	next := Summary{
		NetAcquires: map[string]bool{},
		NetReleases: map[string]bool{},
	}

	// Forces: direct force calls, or any callee that forces.
	for _, cs := range fi.Calls {
		if isForceCall(fi.Pkg.Info, cs.Call) {
			next.Forces = true
			break
		}
		if callee, ok := p.Funcs[cs.Callee]; ok && callee.Sum.Forces {
			next.Forces = true
			break
		}
	}

	// Parameter facts via the taint walker: seed each reference-typed
	// parameter and see where it flows.
	params := paramVars(fi)
	for i, pv := range params {
		if pv == nil || !taintableType(pv.Type()) {
			continue
		}
		tw := newTaintWalker(p, fi, pv)
		tw.walk()
		if tw.stored {
			next.paramBit(&next.StoresParam, i)
		}
		if tw.mutated {
			next.paramBit(&next.MutatesParam, i)
		}
		if tw.returned {
			next.paramBit(&next.ReturnsParam, i)
		}
	}

	// Net lock effects: a structured walk computing the held-set at every
	// exit.  A function whose exits all hold the same non-empty set is an
	// acquire helper; negative counts are net releases.
	lw := analyzeLocks(p, fi)
	if acq, rel, consistent := lw.netEffect(); consistent {
		next.NetAcquires = acq
		next.NetReleases = rel
	}

	fi.Sum = next
	return !summaryEqual(old, next)
}

func summaryEqual(a, b Summary) bool {
	return a.Forces == b.Forces &&
		boolsEqual(a.StoresParam, b.StoresParam) &&
		boolsEqual(a.MutatesParam, b.MutatesParam) &&
		boolsEqual(a.ReturnsParam, b.ReturnsParam) &&
		setsEqual(a.NetAcquires, b.NetAcquires) &&
		setsEqual(a.NetReleases, b.NetReleases)
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// paramVars lists the function's parameter objects: receiver first (when
// present), then value parameters, matching Summary's indexing.
func paramVars(fi *FuncInfo) []*types.Var {
	var out []*types.Var
	if r := fi.Sig.Recv(); r != nil {
		out = append(out, r)
	}
	ps := fi.Sig.Params()
	for i := 0; i < ps.Len(); i++ {
		out = append(out, ps.At(i))
	}
	return out
}

// taintableType reports whether a parameter of type t can meaningfully be
// retained or mutated: slices, pointers, maps, and interfaces qualify.
func taintableType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// summaryBit reports whether a summary fact slice has bit i set.
func summaryBit(bits []bool, i int) bool { return i >= 0 && i < len(bits) && bits[i] }

// isForceCall matches a call to Force/ForceThrough on a type named Log (the
// WAL in this module, a stand-in type in fixtures).
func isForceCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return false
	}
	if fn.Name() != "Force" && fn.Name() != "ForceThrough" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && n.Obj().Name() == "Log"
}

// isInstallCall matches a call to WriteBatch on a type named Store (the
// stable store in this module, a stand-in in fixtures).
func isInstallCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok {
		return "", false
	}
	if fn.Name() != "WriteBatch" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	n := namedOf(sig.Recv().Type())
	if n == nil || n.Obj().Name() != "Store" {
		return "", false
	}
	return "Store.WriteBatch", true
}

// ---------------------------------------------------------------------------
// Intra-function taint/alias walker.
// ---------------------------------------------------------------------------

// taintWalker tracks where a seed value (a parameter, or an analyzer-chosen
// source expression) flows inside one function: into locals (aliasing), into
// persistent storage (stored), through writes (mutated), or out via return.
type taintWalker struct {
	prog *Program
	fi   *FuncInfo
	info *types.Info

	tainted map[*types.Var]bool

	// sources marks call expressions whose results are fresh taint (used by
	// bufescape to seed from arena frames rather than parameters).
	sourceCall func(*ast.CallExpr) bool
	// sourceExpr marks selector reads that are fresh taint.
	sourceExpr func(ast.Expr) bool
	// sourceAny, checked for every expression kind, marks arbitrary
	// expressions as fresh taint (bufescape taints by carrier type).
	sourceAny func(ast.Expr) bool

	stored   bool
	mutated  bool
	returned bool

	// Site maps record where stores and mutations happened, for
	// analyzer-side reporting (deduped across fixed-point passes).
	storeSites      map[ast.Node]bool
	mutateSites     map[ast.Node]bool // direct writes through tainted chains
	mutateCallSites map[ast.Node]bool // mutations via a callee's summary
}

func newTaintWalker(p *Program, fi *FuncInfo, seed *types.Var) *taintWalker {
	tw := &taintWalker{
		prog:            p,
		fi:              fi,
		info:            fi.Pkg.Info,
		tainted:         map[*types.Var]bool{},
		storeSites:      map[ast.Node]bool{},
		mutateSites:     map[ast.Node]bool{},
		mutateCallSites: map[ast.Node]bool{},
	}
	if seed != nil {
		tw.tainted[seed] = true
	}
	return tw
}

// walk runs the taint pass to an intra-function fixed point (alias sets only
// grow, so a few passes suffice).
func (tw *taintWalker) walk() {
	for i := 0; i < 8; i++ {
		before := len(tw.tainted)
		storedBefore, mutatedBefore, returnedBefore := tw.stored, tw.mutated, tw.returned
		ast.Inspect(tw.fi.Decl.Body, tw.visit)
		if len(tw.tainted) == before &&
			tw.stored == storedBefore && tw.mutated == mutatedBefore && tw.returned == returnedBefore {
			return
		}
	}
}

func (tw *taintWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		return false // separate control flow; a capture-and-store is out of scope
	case *ast.AssignStmt:
		tw.assign(n)
	case *ast.IncDecStmt:
		tw.checkMutation(n.X, n)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if tw.exprTainted(r) {
				tw.returned = true
			}
		}
	case *ast.CallExpr:
		tw.call(n)
	case *ast.SendStmt:
		if tw.exprTainted(n.Value) {
			tw.markStored(n)
		}
	}
	return true
}

// assign propagates taint through :=/= and detects persistent stores and
// mutations through tainted chains.
func (tw *taintWalker) assign(as *ast.AssignStmt) {
	// Pair LHS/RHS when shapes line up; a call RHS fans out via
	// ReturnsParam below (handled in call()).
	rhsTaint := func(i int) bool {
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			// Tuple assignment from one call: taint flows only through
			// ReturnsParam summaries; be conservative and use the call's
			// overall taint.
			return tw.exprTainted(as.Rhs[0])
		}
		if i < len(as.Rhs) {
			return tw.exprTainted(as.Rhs[i])
		}
		return false
	}
	for i, lhs := range as.Lhs {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			// Rebinding a local: taint the variable if the RHS is tainted.
			// Taint is never cleared (monotone), which over-approximates
			// re-use of a variable for untainted data later.
			if v := tw.localVar(id); v != nil && rhsTaint(i) {
				tw.tainted[v] = true
			}
			continue
		}
		// Writing through a chain: x.f = v, x[i] = v, *p = v.
		if rhsTaint(i) && tw.persistentBase(lhs) {
			tw.markStored(as)
		}
		tw.checkMutation(lhs, as)
	}
}

// call applies callee summaries to tainted arguments and recognizes the
// builtin copy/append idioms that break aliasing.
func (tw *taintWalker) call(call *ast.CallExpr) {
	// Builtins: copy(dst, src) copies bytes; append(dst, src...) copies
	// bytes; append(dst, elem) stores the element value.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "copy", "len", "cap", "delete", "clear", "min", "max", "print", "println":
			return
		case "append":
			// Ellipsis append of a byte slice copies the bytes — aliasing is
			// broken.  Element append retains the element; the result's
			// taint is handled by exprTainted (append call with tainted
			// element arg is tainted).
			return
		case "panic":
			return
		}
	}
	callee := tw.prog.Lookup(tw.fi.Pkg, call)
	if callee == nil {
		return // unknown or stdlib callee: assumed benign
	}
	args := alignCallArgs(call, callee)
	for pi, arg := range args {
		if arg == nil || !tw.exprTainted(arg) {
			continue
		}
		if summaryBit(callee.Sum.StoresParam, pi) {
			tw.stored = true
			tw.storeSites[call] = true
		}
		if summaryBit(callee.Sum.MutatesParam, pi) {
			tw.mutated = true
			tw.mutateCallSites[call] = true
		}
	}
}

// alignCallArgs aligns a call's receiver and arguments with the callee's
// summary parameter indexing; missing positions (variadic overflow) map to
// the last parameter.
func alignCallArgs(call *ast.CallExpr, callee *FuncInfo) []ast.Expr {
	n := 0
	if callee.Sig.Recv() != nil {
		n++
	}
	n += callee.Sig.Params().Len()
	out := make([]ast.Expr, n)
	idx := 0
	if callee.Sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out[0] = sel.X
		}
		idx = 1
	}
	for i, a := range call.Args {
		pi := idx + i
		if pi >= n {
			pi = n - 1 // variadic overflow shares the last parameter
		}
		out[pi] = a
	}
	return out
}

// exprTainted reports whether e's value aliases tainted data: its base chain
// reaches a tainted variable or an analyzer source, or it is a call whose
// result aliases a tainted argument (ReturnsParam), or an element-append of
// a tainted value.
func (tw *taintWalker) exprTainted(e ast.Expr) bool {
	e = ast.Unparen(e)
	// Scalar values cannot carry aliases: copying sr.lsn out of a tainted
	// carrier retains nothing.
	if t := tw.info.TypeOf(e); t != nil {
		if _, basic := t.Underlying().(*types.Basic); basic {
			return false
		}
	}
	if tw.sourceAny != nil && tw.sourceAny(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := tw.info.Uses[x].(*types.Var); ok && tw.tainted[v] {
			return true
		}
		return false
	case *ast.SelectorExpr:
		if tw.sourceExpr != nil && tw.sourceExpr(x) {
			return true
		}
		return tw.exprTainted(x.X)
	case *ast.IndexExpr:
		return tw.exprTainted(x.X)
	case *ast.SliceExpr:
		return tw.exprTainted(x.X)
	case *ast.StarExpr:
		return tw.exprTainted(x.X)
	case *ast.UnaryExpr:
		return tw.exprTainted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tw.exprTainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if tw.sourceCall != nil && tw.sourceCall(x) {
			return true
		}
		// append(dst, elem): tainted element taints the result slice;
		// append(dst, bytes...) copies and does not.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			if x.Ellipsis.IsValid() {
				return tw.exprTainted(x.Args[0])
			}
			for _, a := range x.Args {
				if tw.exprTainted(a) {
					return true
				}
			}
			return false
		}
		// A method named Clone is the module's sanctioned copy boundary: its
		// result is fresh memory by contract, so taint does not flow through
		// (the ReturnsParam summary over-approximates `c := *o` struct
		// copies whose reference fields are then replaced).
		if fn, ok := calleeObject(tw.info, x).(*types.Func); ok && fn.Name() == "Clone" {
			return false
		}
		// A module callee whose result aliases a tainted argument.
		if callee := tw.prog.Lookup(tw.fi.Pkg, x); callee != nil {
			args := alignCallArgs(x, callee)
			for pi, arg := range args {
				if arg != nil && summaryBit(callee.Sum.ReturnsParam, pi) && tw.exprTainted(arg) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// checkMutation reports a write whose LHS chain passes through tainted data
// (x.f = v where x is tainted mutates the seed).
func (tw *taintWalker) checkMutation(lhs ast.Expr, at ast.Node) {
	base, ok := mutationBase(ast.Unparen(lhs))
	if !ok {
		return
	}
	for {
		base = ast.Unparen(base)
		if tw.exprTainted(base) {
			tw.mutated = true
			tw.mutateSites[at] = true
			return
		}
		next, ok := mutationBase(base)
		if !ok {
			return
		}
		base = next
	}
}

// persistentBase reports whether writing through lhs stores into memory that
// outlives the function: the chain's root is a field selection, a global, a
// dereferenced pointer, or anything other than a plain local variable.
func (tw *taintWalker) persistentBase(lhs ast.Expr) bool {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			v, ok := tw.info.Uses[x].(*types.Var)
			if !ok {
				if v, ok = tw.info.Defs[x].(*types.Var); !ok {
					return true // unresolved: assume persistent
				}
			}
			if v.IsField() || tw.isGlobal(v) {
				return true
			}
			// A local slice/map/pointer still references non-local memory
			// when it is itself a parameter alias; storing into it escapes.
			if tw.tainted[v] {
				return false // storing into tainted memory is mutation, not fresh retention
			}
			return tw.localEscapes(v)
		case *ast.SelectorExpr:
			if f, _ := fieldSelection(tw.info, x); f != nil {
				return true // writing through a field: persistent
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			return true // writing through a pointer: persistent
		default:
			return true
		}
	}
}

// localEscapes reports whether a local variable's contents outlive the call:
// parameters and receivers do (the caller sees them), plain locals do not.
func (tw *taintWalker) localEscapes(v *types.Var) bool {
	for _, pv := range paramVars(tw.fi) {
		if pv == v {
			return true
		}
	}
	return false
}

// localVar resolves id to a function-local (or parameter) variable.
func (tw *taintWalker) localVar(id *ast.Ident) *types.Var {
	if v, ok := tw.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := tw.info.Uses[id].(*types.Var); ok && !v.IsField() && !tw.isGlobal(v) {
		return v
	}
	return nil
}

func (tw *taintWalker) isGlobal(v *types.Var) bool {
	return v.Parent() == tw.fi.Pkg.Pkg.Scope()
}

func (tw *taintWalker) markStored(at ast.Node) {
	tw.stored = true
	tw.storeSites[at] = true
}

// ---------------------------------------------------------------------------
// Lock-effect walker (shared by summaries and the critsection analyzer).
// ---------------------------------------------------------------------------

// lockKey canonically names a mutex: "Type.field" for struct-field mutexes,
// "pkg:var" for package-level mutexes, "local:name" for everything else
// (local keys never appear in cross-function summaries).
func lockKeyFor(info *types.Info, pkg *types.Package, recv ast.Expr) (key string, local bool) {
	recv = ast.Unparen(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if f, owner := fieldSelection(info, sel); f != nil && owner != "" {
			return owner + "." + f.Name(), false
		}
		// Package-qualified global (pkg.mu).
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
					return v.Pkg().Path() + ":" + v.Name(), false
				}
			}
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			if v.Parent() == pkg.Scope() {
				return pkg.Path() + ":" + v.Name(), false
			}
			return "local:" + v.Name(), true
		}
	}
	return "local:" + types.ExprString(recv), true
}

// lockOp is one acquisition or release in the structured walk.
type lockOp struct {
	key     string
	local   bool
	rlock   bool // RLock/RUnlock family
	acquire bool
	pos     ast.Node
}

// exitState is the held-lock picture at one function exit.
type exitState struct {
	pos  ast.Node
	held map[string]heldLock // key -> acquisition info (counts collapsed)
}

type heldLock struct {
	count int
	pos   ast.Node // first acquisition
	rlock bool
}

// lockWalker runs a structured, defer-aware walk of one function body and
// records the held-lock multiset at every exit (returns, panics, fallthrough
// end) plus net releases.
type lockWalker struct {
	prog *Program
	fi   *FuncInfo
	info *types.Info

	exits []exitState
	// releasesUnheld counts keys this function releases without acquiring
	// (negative net: a release helper).
	releasesUnheld map[string]bool
	// panics records panic sites with their held sets (excluding
	// defer-covered keys).
	panics []exitState

	// entryHeld primes the walk with locks assumed held by the caller (the
	// *Locked-function convention); netEffect is computed relative to it.
	entryHeld map[string]bool

	// onCall, when set, observes every call site with the state in force at
	// that point (walorder reads its must-forced pseudo-key here).
	onCall func(call *ast.CallExpr, st *lwState, deferred bool)
	// pseudoAcquire, when set, names pseudo keys (containing '#') a call
	// acquires.  Pseudo keys are never released and are filtered out of
	// exits, panics, and net-effect summaries; they exist so analyzers can
	// ride the walker's must-analysis for non-lock facts.
	pseudoAcquire func(call *ast.CallExpr) []string
}

const pseudoKeyMark = "#"

func newLockWalker(p *Program, fi *FuncInfo) *lockWalker {
	return &lockWalker{
		prog:           p,
		fi:             fi,
		info:           fi.Pkg.Info,
		releasesUnheld: map[string]bool{},
	}
}

// lwState is the walk state: held locks plus the set of keys covered by a
// defer (released at any later exit).
type lwState struct {
	held     map[string]heldLock
	deferred map[string]bool
}

func (s lwState) clone() lwState {
	h := make(map[string]heldLock, len(s.held))
	for k, v := range s.held {
		h[k] = v
	}
	d := make(map[string]bool, len(s.deferred))
	for k := range s.deferred {
		d[k] = true
	}
	return lwState{held: h, deferred: d}
}

// intersect merges two branch-exit states: a lock is held after the branch
// only if both sides hold it (under-approximation that avoids false leaks),
// and defers accumulate from either side.
func intersectState(a, b lwState) lwState {
	h := make(map[string]heldLock)
	for k, v := range a.held {
		if bv, ok := b.held[k]; ok {
			if bv.count < v.count {
				v = bv
			}
			h[k] = v
		}
	}
	d := make(map[string]bool, len(a.deferred)+len(b.deferred))
	for k := range a.deferred {
		d[k] = true
	}
	for k := range b.deferred {
		d[k] = true
	}
	return lwState{held: h, deferred: d}
}

// loopAfter merges loop in-state and body out-state.  Zero iterations are
// possible, so normally only locks held on both the skip path and the
// full-body path survive (under-approximation).  The one exception is the
// lock-sweep idiom — a body whose only lock effect is acquisitions, as in
// a lockAll ranging over a striped lock set — which is treated as executing:
// the sweep is all-or-nothing and collapsing it to "maybe nothing" would
// hide the acquire-helper classification the critsection analyzer depends
// on at the helper's call sites.
func loopAfter(st, bodySt lwState) lwState {
	onlyAdds := true
	for k, v := range st.held {
		if bv, ok := bodySt.held[k]; !ok || bv.count < v.count {
			onlyAdds = false
			break
		}
	}
	grew := false
	if onlyAdds {
		for k, bv := range bodySt.held {
			if v, ok := st.held[k]; !ok || bv.count > v.count {
				grew = true
				break
			}
		}
	}
	if onlyAdds && grew {
		return bodySt
	}
	return intersectState(st, bodySt)
}

func (lw *lockWalker) walk() {
	st := lwState{held: map[string]heldLock{}, deferred: map[string]bool{}}
	for k := range lw.entryHeld {
		st.held[k] = heldLock{count: 1, pos: lw.fi.Decl}
	}
	st, terminated := lw.walkBlock(lw.fi.Decl.Body, st)
	if !terminated {
		lw.noteExit(lw.fi.Decl.Body, st)
	}
}

// analyzeLocks runs the lock walk for fi, handling the unlock/relock-window
// idiom: when the plain walk sees releases of locks it never acquired (a
// *Locked function releasing the caller's lock around device I/O, or a pure
// release helper), the walk is re-run primed with those locks assumed held
// at entry, so balance is judged from the caller's point of view.
func analyzeLocks(p *Program, fi *FuncInfo) *lockWalker {
	lw := newLockWalker(p, fi)
	lw.walk()
	if len(lw.releasesUnheld) == 0 {
		return lw
	}
	primed := newLockWalker(p, fi)
	primed.entryHeld = lw.releasesUnheld
	primed.walk()
	return primed
}

// walkBlock walks stmts sequentially, returning the out-state and whether
// every path through the block terminated (return/panic).
func (lw *lockWalker) walkBlock(b *ast.BlockStmt, st lwState) (lwState, bool) {
	if b == nil {
		return st, false
	}
	return lw.walkStmts(b.List, st)
}

func (lw *lockWalker) walkStmts(stmts []ast.Stmt, st lwState) (lwState, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = lw.walkStmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (lw *lockWalker) walkStmt(s ast.Stmt, st lwState) (lwState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		lw.applyExpr(s.X, &st, false)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			lw.applyExpr(r, &st, false)
		}
	case *ast.DeferStmt:
		lw.applyExpr(s.Call, &st, true)
	case *ast.GoStmt:
		// A goroutine's locks are its own.
	case *ast.ReturnStmt:
		lw.noteExit(s, st)
		return st, true
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = lw.walkStmt(s.Init, st)
		}
		lw.applyExpr(s.Cond, &st, false)
		thenSt, thenTerm := lw.walkBlock(s.Body, st.clone())
		elseSt, elseTerm := st.clone(), false
		if s.Else != nil {
			elseSt, elseTerm = lw.walkStmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return intersectState(thenSt, elseSt), false
		}
	case *ast.BlockStmt:
		return lw.walkBlock(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = lw.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			lw.applyExpr(s.Cond, &st, false)
		}
		bodySt, _ := lw.walkBlock(s.Body, st.clone())
		return loopAfter(st, bodySt), false
	case *ast.RangeStmt:
		bodySt, _ := lw.walkBlock(s.Body, st.clone())
		return loopAfter(st, bodySt), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = lw.walkStmt(s.Init, st)
		}
		return lw.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = lw.walkStmt(s.Init, st)
		}
		return lw.walkCases(s.Body, st)
	case *ast.SelectStmt:
		return lw.walkCases(s.Body, st)
	case *ast.LabeledStmt:
		return lw.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto: end this path without an exit check; the
		// surrounding loop's intersection keeps things conservative.
		return st, true
	case *ast.DeclStmt:
		// Declarations with initializers may contain calls.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lw.applyExpr(v, &st, false)
					}
				}
			}
		}
	}
	return st, false
}

// walkCases handles switch/select bodies: each clause walks a clone, the
// after-state is the intersection of the non-terminating clauses (plus the
// in-state when no default clause guarantees entry).
func (lw *lockWalker) walkCases(body *ast.BlockStmt, st lwState) (lwState, bool) {
	if body == nil || len(body.List) == 0 {
		return st, false
	}
	var outs []lwState
	hasDefault := false
	allTerminated := true
	for _, cs := range body.List {
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				hasDefault = true
			} else {
				cloned := st.clone()
				lw.walkStmt(c.Comm, cloned)
			}
		}
		out, term := lw.walkStmts(stmts, st.clone())
		if !term {
			outs = append(outs, out)
			allTerminated = false
		}
	}
	if !hasDefault {
		outs = append(outs, st)
		allTerminated = false
	}
	if allTerminated {
		return st, true
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = intersectState(merged, o)
	}
	return merged, false
}

// applyExpr scans an expression for lock operations, helper calls with lock
// summaries, and panic sites.
func (lw *lockWalker) applyExpr(e ast.Expr, st *lwState, deferred bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A deferred closure's releases still cover later exits.
			if deferred {
				return true
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		lw.applyCall(call, st, deferred)
		return true
	})
}

func (lw *lockWalker) applyCall(call *ast.CallExpr, st *lwState, deferred bool) {
	if lw.onCall != nil {
		lw.onCall(call, st, deferred)
	}
	if lw.pseudoAcquire != nil && !deferred {
		for _, k := range lw.pseudoAcquire(call) {
			h := st.held[k]
			if h.count == 0 {
				h.pos = call
			}
			h.count++
			st.held[k] = h
		}
	}
	// panic(...) with locks held and no defer covering them.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := lw.info.Uses[id].(*types.Builtin); isBuiltin || lw.info.Uses[id] == nil {
			lw.notePanic(call, *st)
			return
		}
	}
	if op, ok := lw.lockOpOf(call, deferred); ok {
		lw.applyLockOp(op, st, deferred)
		return
	}
	// Helper calls with net lock effects.
	callee := lw.prog.Lookup(lw.fi.Pkg, call)
	if callee == nil {
		return
	}
	for _, k := range sortedSet(callee.Sum.NetAcquires) {
		lw.applyLockOp(lockOp{key: k, acquire: true, pos: call}, st, deferred)
	}
	for _, k := range sortedSet(callee.Sum.NetReleases) {
		lw.applyLockOp(lockOp{key: k, acquire: false, pos: call}, st, deferred)
	}
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockOpOf recognizes direct (R)Lock/(R)Unlock calls on sync mutexes.
func (lw *lockWalker) lockOpOf(call *ast.CallExpr, deferred bool) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	m := sel.Sel.Name
	var acquire, rlock bool
	switch m {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, rlock = true, true
	case "Unlock":
	case "RUnlock":
		rlock = true
	default:
		return lockOp{}, false
	}
	if !isSyncMutex(lw.info.TypeOf(sel.X)) {
		return lockOp{}, false
	}
	key, local := lockKeyFor(lw.info, lw.fi.Pkg.Pkg, sel.X)
	return lockOp{key: key, local: local, rlock: rlock, acquire: acquire, pos: call}, true
}

func (lw *lockWalker) applyLockOp(op lockOp, st *lwState, deferred bool) {
	if op.acquire {
		if deferred {
			return // defer x.Lock() is pathological; out of scope
		}
		h := st.held[op.key]
		if h.count == 0 {
			h.pos = op.pos
			h.rlock = op.rlock
		}
		h.count++
		st.held[op.key] = h
		return
	}
	// Release.
	if deferred {
		st.deferred[op.key] = true
		return
	}
	h, ok := st.held[op.key]
	if !ok || h.count == 0 {
		lw.releasesUnheld[op.key] = true
		return
	}
	h.count--
	if h.count == 0 {
		delete(st.held, op.key)
	} else {
		st.held[op.key] = h
	}
}

// noteExit records the locks held at an exit that no defer covers.
func (lw *lockWalker) noteExit(pos ast.Node, st lwState) {
	held := make(map[string]heldLock)
	for k, v := range st.held {
		if st.deferred[k] || strings.Contains(k, pseudoKeyMark) {
			continue
		}
		held[k] = v
	}
	lw.exits = append(lw.exits, exitState{pos: pos, held: held})
}

func (lw *lockWalker) notePanic(pos ast.Node, st lwState) {
	held := make(map[string]heldLock)
	for k, v := range st.held {
		if st.deferred[k] || strings.Contains(k, pseudoKeyMark) {
			continue
		}
		held[k] = v
	}
	if len(held) > 0 {
		lw.panics = append(lw.panics, exitState{pos: pos, held: held})
	}
}

// netEffect classifies the function for cross-function summaries: when every
// exit holds the same set of locks, that set is the net acquisition (an
// acquire helper when non-empty); keys released while unheld are net
// releases.  Inconsistent exits report no summary (consistent=false) — the
// critsection analyzer flags those paths directly.
func (lw *lockWalker) netEffect() (acquires, releases map[string]bool, consistent bool) {
	acquires = map[string]bool{}
	releases = map[string]bool{}
	for k := range lw.releasesUnheld {
		if !strings.HasPrefix(k, "local:") {
			releases[k] = true
		}
	}
	if len(lw.exits) == 0 {
		return acquires, releases, true
	}
	first := lw.exits[0].held
	for _, e := range lw.exits[1:] {
		if !heldEqual(first, e.held) {
			return map[string]bool{}, releases, false
		}
	}
	for k := range first {
		if !lw.entryHeld[k] && !strings.HasPrefix(k, "local:") {
			acquires[k] = true
		}
	}
	for k := range lw.entryHeld {
		if _, ok := first[k]; !ok && !strings.HasPrefix(k, "local:") {
			releases[k] = true
		}
	}
	return acquires, releases, true
}

func heldEqual(a, b map[string]heldLock) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// exitDesc renders a held set for diagnostics.
func exitDesc(held map[string]heldLock) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// Short renders a FuncKey's human name ("(T).m" or "f").
func (k FuncKey) Short() string {
	s := string(k)
	if i := strings.LastIndex(s, ")."); i >= 0 {
		if j := strings.LastIndex(s[:i], ".("); j >= 0 {
			return s[j+1:]
		}
	}
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

// funcInfoForDecl resolves a declaration being analyzed to its program node,
// wrapping it on the fly when the program indexed a different load of the
// same function (test variants re-check plain sources).
func (p *Program) funcInfoForDecl(pkg *Package, fd *ast.FuncDecl) *FuncInfo {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	key := funcKeyFor(obj)
	if fi := p.Funcs[key]; fi != nil && fi.Decl == fd {
		return fi
	}
	fi := &FuncInfo{Key: key, Decl: fd, Pkg: pkg, Sig: obj.Type().(*types.Signature)}
	if known := p.Funcs[key]; known != nil {
		fi.Sum = known.Sum
	}
	return fi
}
