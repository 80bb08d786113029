// Package loading without golang.org/x/tools: `go list -export -deps -test`
// enumerates every package (and test variant) with the path of its compiled
// export data in the build cache, and go/importer's gc importer accepts a
// lookup function that serves imports from exactly those files.  Each target
// package is then parsed from source and type-checked, which is everything
// the analyzers need.
package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's plain import path (test variants keep the
	// path of the package under test).
	ImportPath string
	// Dir is the package directory.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed sources, test files included for test variants.
	Files []*ast.File
	// Pkg and Info are the type-checker's output.
	Pkg  *types.Package
	Info *types.Info
}

// listPkg mirrors the `go list -json` fields the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Incomplete bool
}

// Load enumerates, parses, and type-checks the packages matched by patterns
// (relative to dir; empty dir means the current directory).  In-package test
// files are analyzed as part of their package's test variant; external
// _test packages load as their own targets.  Only packages outside GOROOT
// are returned, so stdlib patterns may be supplied purely to make their
// export data importable (fixture loading does this).
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, true, patterns)
	if err != nil {
		return nil, err
	}

	// Export data indexed by the import path as it appears in source, with
	// test variants ("p [q.test]") keyed separately for context-sensitive
	// resolution.
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	// Pick analysis targets: for each plain import path, the in-package
	// test variant (a superset of the plain sources) wins when present;
	// external test packages are their own targets.
	targets := make(map[string]listPkg)
	for _, e := range entries {
		if e.Standard || e.DepOnly || len(e.GoFiles) == 0 {
			continue
		}
		base := plainPath(e.ImportPath)
		if strings.HasSuffix(base, ".test") {
			continue // generated test-main package
		}
		switch {
		case e.ForTest != "" && base == e.ForTest:
			targets[base] = e // in-package test variant supersedes
		case e.ForTest != "":
			targets[base] = e // external _test package
		default:
			if _, ok := targets[base]; !ok {
				targets[base] = e
			}
		}
	}

	fset := token.NewFileSet()
	var out []*Package
	for _, base := range sortedKeys(targets) {
		p, err := check(fset, targets[base], base, exports)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadFixture parses and type-checks a single fixture directory as package
// path "fixture/<basename>", resolving its imports (standard library and
// this module alike) through the export data of the packages matched by
// patterns.  Fixture directories live under testdata/, invisible to normal
// builds.
func LoadFixture(dir string, patterns ...string) (*Package, error) {
	// Fixtures import only plain packages, so skip test variants and avoid
	// compiling export data for stdlib test binaries.
	entries, err := goList(".", false, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no fixture files in %s", dir)
	}
	fset := token.NewFileSet()
	lp := listPkg{Dir: "", GoFiles: names}
	return check(fset, lp, "fixture/"+filepath.Base(dir), exports)
}

func goList(dir string, test bool, patterns []string) ([]listPkg, error) {
	args := []string{"list", "-e", "-export", "-deps"}
	if test {
		args = append(args, "-test")
	}
	args = append(args,
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,DepOnly,ForTest,Incomplete",
		"--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	if dir != "" {
		cmd.Dir = dir
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var entries []listPkg
	dec := json.NewDecoder(bytes.NewReader(outBytes))
	for {
		var e listPkg
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if e.Incomplete {
			return nil, fmt.Errorf("lint: package %s did not compile; fix the build before linting", e.ImportPath)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// check parses and type-checks one target.  forTest resolution: an external
// test package imports the test variant of its package under test, so the
// importer first tries the variant key.
func check(fset *token.FileSet, lp listPkg, path string, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		full := name
		if lp.Dir != "" {
			full = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	variantSuffix := ""
	if lp.ForTest != "" {
		variantSuffix = " [" + lp.ForTest + ".test]"
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		if variantSuffix != "" {
			if e, ok := exports[importPath+variantSuffix]; ok {
				return os.Open(e)
			}
		}
		e, ok := exports[importPath]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (add it to the load patterns)", importPath)
		}
		return os.Open(e)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// plainPath strips a test-variant suffix: "p [q.test]" -> "p", and maps an
// external test package "p_test" to its directory package path "p_test"
// (kept distinct from p on purpose).
func plainPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func sortedKeys(m map[string]listPkg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// Deterministic load order so diagnostics sort stably across runs.
	sort.Strings(out)
	return out
}
