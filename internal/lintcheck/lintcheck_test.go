package lintcheck

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: packages under
// testdata/src are type-checked against their fixture imports (the
// hercules/internal/fleet stub lives at the real import path) with
// stdlib resolved from compiler export data, analyzers run through the
// same Run entry point as the CLI (so //lint:allow suppression and
// directive diagnostics are exercised), and findings are matched
// line-by-line against `// want "regexp"` comments.

// fixtureLoader type-checks fixture packages rooted at testdata/src,
// resolving fixture imports recursively and everything else through
// the standard gc importer.
type fixtureLoader struct {
	root string
	fset *token.FileSet
	memo map[string]*Package
	std  types.Importer
}

func newFixtureLoader() *fixtureLoader {
	return &fixtureLoader{
		root: filepath.Join("testdata", "src"),
		fset: token.NewFileSet(),
		memo: make(map[string]*Package),
		std:  importer.Default(),
	}
}

// Import implements types.Importer for the fixture tree.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) load(importPath string) (*Package, error) {
	if pkg, ok := l.memo[importPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		// Mirror the production loader: only non-test GoFiles reach the
		// analyzers (tests are exempt from the contracts).
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	pkg, err := typecheck(l.fset, l, importPath, dir, names)
	if err != nil {
		return nil, err
	}
	l.memo[importPath] = pkg
	return pkg, nil
}

// loadFixture loads testdata/src/<importPath> or fails the test.
func loadFixture(t *testing.T, importPath string) *Package {
	t.Helper()
	pkg, err := newFixtureLoader().load(importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	return pkg
}

// want is one expectation parsed from a `// want "regexp"` comment.
type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantsFor extracts the want expectations per file:line. The marker
// may sit anywhere in a comment's text, so a malformed-directive line
// can carry its own expectation (//lint:allow // want "bare ...").
func wantsFor(t *testing.T, pkg *Package) map[string][]*want {
	t.Helper()
	const marker = "// want "
	out := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, marker)
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				rest := strings.TrimSpace(c.Text[idx+len(marker):])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want comment %q: %v", key, c.Text, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: unquoting %q: %v", key, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: want pattern %q: %v", key, pat, err)
					}
					out[key] = append(out[key], &want{re: re, raw: pat})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return out
}

// checkFixture runs the analyzers over the fixture package (through
// Run, so suppression and directive checks apply) and matches every
// finding against the want comments, both ways.
func checkFixture(t *testing.T, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	findings, err := Run(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := wantsFor(t, pkg)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		text := f.Analyzer + ": " + f.Message
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", key, text)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want %q", key, w.raw)
			}
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	checkFixture(t, loadFixture(t, "hercules/internal/sim"), WallclockAnalyzer)
}

func TestWallclockIgnoresNonReplayPackages(t *testing.T) {
	// clockuser has no want comments: any finding fails the test.
	checkFixture(t, loadFixture(t, "clockuser"), WallclockAnalyzer)
}

func TestMaporderFixture(t *testing.T) {
	checkFixture(t, loadFixture(t, "maporder"), MaporderAnalyzer)
}

func TestObscontractFixture(t *testing.T) {
	// The fixture directory also holds obscontract_test.go with an
	// unmarked violation; the loader must never feed it to analyzers.
	checkFixture(t, loadFixture(t, "obscontract"), ObscontractAnalyzer)
}

func TestShadowFixture(t *testing.T) {
	checkFixture(t, loadFixture(t, "shadow"), ShadowAnalyzer)
}

func TestNilnessFixture(t *testing.T) {
	checkFixture(t, loadFixture(t, "nilness"), NilnessAnalyzer)
}

// TestAllowDirectiveScope pins the suppression contract (the wallclock
// analyzer is the probe): an own-line directive covers exactly the
// next statement, a directive naming another analyzer suppresses
// nothing, and bare/reasonless/unknown-analyzer directives are
// themselves reported under lintdirective.
func TestAllowDirectiveScope(t *testing.T) {
	checkFixture(t, loadFixture(t, "hercules/internal/workload"), WallclockAnalyzer)
}

// TestRepoIsClean runs the full suite over the real module: the tree
// must stay lint-clean, with every legitimate violation carrying a
// reasoned //lint:allow.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint pass skipped in -short mode")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load matched no packages")
	}
	for _, pkg := range pkgs {
		findings, err := Run(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}
