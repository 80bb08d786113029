// Package lint hosts lllint, a suite of five static analyzers that
// mechanically enforce the recovery-critical invariants this engine's
// correctness rests on: deterministic redo replay (bit-identical whoever
// replays each chain; map-iteration order never leaking into installation-graph
// edge order or flush-set construction), the engine/cache/stable/wal lock
// order, WAL/stable force errors always observed, counters accessed
// atomically everywhere or nowhere, and decoded log records treated as
// immutable snapshots.  Every analyzer looks at
// one package at a time.  The write-ahead rule is not a lint: the cache
// manager's installation step, the one writer of the stable store, forces
// the log itself before it writes.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, Reportf, analysistest-style fixtures) but is
// built purely on the standard library — go/ast, go/types, and export data
// produced by `go list -export` — so the module stays dependency-free.
//
// Suppression: a finding that is intentional can be silenced with a
// directive comment
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either at the end of the offending line or on the line directly
// above it.  The reason is mandatory; a directive without one is itself
// reported, as is one that can never suppress anything (see
// suppressions.stale).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil means every package.
	Match func(pkgPath string) bool
	// Run reports findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzers returns the full lllint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ReplayDeterminism,
		LockOrder,
		ForceCheck,
		AtomicMix,
		LogRecPurity,
	}
}

// AnalyzerByName resolves a suite member, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Lint runs every analyzer that matches each package, applies suppression
// directives, and returns the surviving findings sorted by position.
// Malformed and stale directives are reported as findings of the
// pseudo-analyzer "directive" (see suppressions.stale).
func Lint(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup, bad := collectDirectives(pkg.Fset, pkg.Files)
		out = append(out, bad...)
		ran := map[string]bool{}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.ImportPath) {
				continue
			}
			ran[a.Name] = true
			diags, err := runOne(a, pkg)
			if err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			out = append(out, sup.filter(diags)...)
		}
		out = append(out, sup.stale(pkg.ImportPath, ran)...)
	}
	sortDiagnostics(out)
	return out, nil
}

// RunUnfiltered runs one analyzer on one package regardless of its Match
// predicate (fixture tests exercise analyzers on testdata packages whose
// import paths would never match).  Suppression directives still apply.
func RunUnfiltered(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	sup, out := collectDirectives(pkg.Fset, pkg.Files)
	diags, err := runOne(a, pkg)
	if err != nil {
		return nil, err
	}
	out = append(out, sup.filter(diags)...)
	out = append(out, sup.stale(pkg.ImportPath, map[string]bool{a.Name: true})...)
	sortDiagnostics(out)
	return out, nil
}

func runOne(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return pass.diags, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---------------------------------------------------------------------------
// Suppression directives.
// ---------------------------------------------------------------------------

const directivePrefix = "//lint:ignore"

// directive is one //lint:ignore comment, tracked so unused ("stale")
// directives can themselves be reported.
type directive struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

// suppressions indexes directives by file, line, and suppressed analyzer.
type suppressions struct {
	byLine map[string]map[int]map[string]*directive
	all    []*directive
}

// collectDirectives scans the files' comments for //lint:ignore directives.
// A well-formed directive suppresses the named analyzers on its own line and
// on the line directly below (covering both trailing and leading placement).
// Malformed directives come back as diagnostics.
func collectDirectives(fset *token.FileSet, files []*ast.File) (*suppressions, []Diagnostic) {
	sup := &suppressions{byLine: make(map[string]map[int]map[string]*directive)}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Message:  "malformed //lint:ignore directive: need an analyzer name and a reason",
						Analyzer: "directive",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				for i, n := range names {
					names[i] = strings.TrimSpace(n)
				}
				d := &directive{pos: pos, names: names, used: make(map[string]bool)}
				sup.all = append(sup.all, d)
				byLine := sup.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]*directive)
					sup.byLine[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := byLine[line]
					if set == nil {
						set = make(map[string]*directive)
						byLine[line] = set
					}
					for _, n := range names {
						set[n] = d
					}
				}
			}
		}
	}
	return sup, bad
}

func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if dir := s.byLine[d.Pos.Filename][d.Pos.Line][d.Analyzer]; dir != nil {
			dir.used[d.Analyzer] = true
			continue
		}
		out = append(out, d)
	}
	return out
}

// stale reports directives that suppress nothing in package pkgPath.  A
// directive naming an analyzer outside the suite, or one that did not run
// and whose Match excludes the package, can never apply — judged on Match,
// not on which analyzers this run selected.  A directive whose every named
// analyzer ran yet none suppressed a finding is dead weight that hides
// future regressions.  Any other directive naming an analyzer that did not
// run is not judged.
func (s *suppressions) stale(pkgPath string, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(d *directive, format string, args ...any) {
		out = append(out, Diagnostic{Pos: d.pos, Message: fmt.Sprintf(format, args...), Analyzer: "directive"})
	}
	for _, d := range s.all {
		names := strings.Join(d.names, ",")
		if why := cannotApply(d.names, pkgPath, ran); why != "" {
			report(d, "stale //lint:ignore %s: %s (delete the directive)", names, why)
			continue
		}
		judgeable, usedAny := true, false
		for _, n := range d.names {
			if !ran[n] {
				judgeable = false
				break
			}
			if d.used[n] {
				usedAny = true
			}
		}
		if judgeable && !usedAny {
			report(d, "stale //lint:ignore %s: it suppresses nothing here (delete the directive)", names)
		}
	}
	return out
}

// cannotApply says why a directive naming names can never suppress a finding
// in package pkgPath, or returns "" when it can.
func cannotApply(names []string, pkgPath string, ran map[string]bool) string {
	for _, n := range names {
		a := AnalyzerByName(n)
		switch {
		case a == nil:
			return fmt.Sprintf("%q is not an lllint analyzer", n)
		case !ran[n] && a.Match != nil && !a.Match(pkgPath):
			return fmt.Sprintf("%s never runs on %s", n, pkgPath)
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Shared type helpers.
// ---------------------------------------------------------------------------

// matchSuffix builds a Match predicate accepting import paths ending in any
// of the given suffixes.
func matchSuffix(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

// calleeObject resolves the function or method a call invokes, nil for
// indirect calls through function values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// namedOf unwraps pointers and returns the named type beneath t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind a pointer) is the named type
// pkgPathSuffix.typeName.
func typeIs(t types.Type, pkgPathSuffix, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Name() != typeName {
		return false
	}
	p := n.Obj().Pkg().Path()
	return p == pkgPathSuffix || strings.HasSuffix(p, "/"+pkgPathSuffix)
}

// fieldSelection resolves sel to a struct field and returns the field object
// plus the name of the named struct type that declares it ("" when the
// receiver type is unnamed).
func fieldSelection(info *types.Info, sel *ast.SelectorExpr) (*types.Var, string) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, ""
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil, ""
	}
	name := ""
	if n := namedOf(s.Recv()); n != nil {
		name = n.Obj().Name()
	}
	return v, name
}

// errorIsLastResult reports whether the callee's final result is error, and
// how many results it has.
func errorIsLastResult(sig *types.Signature) (int, bool) {
	res := sig.Results()
	if res.Len() == 0 {
		return 0, false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return res.Len(), ok && named.Obj() != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
