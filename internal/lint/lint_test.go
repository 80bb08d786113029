package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixturePatterns supply export data for everything the fixtures import.
var fixturePatterns = []string{
	"sync", "sync/atomic", "math/rand", "time", "sort",
	"logicallog/internal/wal",
}

// wantRe extracts the expectation regexes from a `// want "re"` comment.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` comment: a diagnostic whose message matches
// re must be reported at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// runFixture loads testdata/src/<dir>, runs the analyzer on it (bypassing
// Match, which would reject the fixture import path), and checks the
// diagnostics against the fixture's want comments exactly: every want must
// be matched by a diagnostic and every diagnostic must be claimed by a want.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, err := LoadFixture(filepath.Join("testdata", "src", dir), fixturePatterns...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := RunUnfiltered(a, pkg)
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, dir, err)
	}

	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, directivePrefix) && !strings.Contains(c.Text, "// want") {
					continue // a directive's reason text is not an expectation,
					// unless the stale-directive fixture embeds one explicitly
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, expectation{pos.Filename, pos.Line, re})
				}
			}
		}
	}

	claimed := make([]bool, len(wants))
	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if claimed[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				claimed[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !claimed[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestReplayDeterminismFixture(t *testing.T) {
	runFixture(t, ReplayDeterminism, "replaydeterminism")
}
func TestLockOrderFixture(t *testing.T)    { runFixture(t, LockOrder, "lockorder") }
func TestForceCheckFixture(t *testing.T)   { runFixture(t, ForceCheck, "forcecheck") }
func TestAtomicMixFixture(t *testing.T)    { runFixture(t, AtomicMix, "atomicmix") }
func TestLogRecPurityFixture(t *testing.T) { runFixture(t, LogRecPurity, "logrecpurity") }

// TestStaleDirective checks that an ignore suppressing nothing is itself
// reported once its analyzer has run, and that one naming an unknown
// analyzer, or one whose Match excludes the package, is reported whether or
// not it ran.
func TestStaleDirective(t *testing.T) { runFixture(t, ForceCheck, "staledirective") }

// TestSuppression exercises //lint:ignore in both placements (leading line
// and trailing comment), plus the negative case: a directive naming a
// different analyzer must not suppress.
func TestSuppression(t *testing.T) { runFixture(t, ForceCheck, "suppress") }

// TestMalformedDirective checks that a //lint:ignore with no reason is
// itself reported and does not suppress the finding beneath it.
func TestMalformedDirective(t *testing.T) {
	pkg, err := LoadFixture(filepath.Join("testdata", "src", "directive"), fixturePatterns...)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunUnfiltered(ForceCheck, pkg)
	if err != nil {
		t.Fatalf("running forcecheck: %v", err)
	}
	var gotDirective, gotFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			if !strings.Contains(d.Message, "malformed") {
				t.Errorf("directive diagnostic has unexpected message: %s", d)
			}
			gotDirective = true
		case "forcecheck":
			gotFinding = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotDirective {
		t.Error("missing diagnostic for the reason-less //lint:ignore directive")
	}
	if !gotFinding {
		t.Error("a malformed directive must not suppress the finding beneath it")
	}
}

// TestAnalyzerRegistry pins the suite membership and name lookup.
func TestAnalyzerRegistry(t *testing.T) {
	names := []string{
		"replaydeterminism", "lockorder", "forcecheck", "atomicmix",
		"logrecpurity",
	}
	as := Analyzers()
	if len(as) != len(names) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(as), len(names))
	}
	for i, want := range names {
		if as[i].Name != want {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, as[i].Name, want)
		}
		if AnalyzerByName(want) != as[i] {
			t.Errorf("AnalyzerByName(%q) did not return the suite member", want)
		}
	}
	if AnalyzerByName("nosuch") != nil {
		t.Error("AnalyzerByName should return nil for unknown names")
	}
}

// TestRepoIsClean runs the full suite over the whole module, enforcing the
// zero-findings invariant that CI also checks via cmd/lllint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is not short")
	}
	pkgs, err := Load("", "logicallog/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Lint(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}
