package lintcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check over a type-checked package — the local
// analogue of golang.org/x/tools/go/analysis.Analyzer. This module is
// deliberately dependency-free, so the framework is reimplemented here
// on the standard library's go/ast + go/types instead of importing
// x/tools; the Analyzer/Pass shape is kept close enough that porting
// an analyzer onto the upstream framework is mechanical.
type Analyzer struct {
	// Name is the analyzer's identifier: what diagnostics are tagged
	// with and what a //lint:allow directive names.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	findings *[]Finding
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		pos:      pos,
	})
}

// Finding is one diagnostic from one analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string

	pos token.Pos
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// DirectiveName is the pseudo-analyzer that malformed //lint:allow
// directives are reported under. Directive findings cannot themselves
// be suppressed.
const DirectiveName = "lintdirective"

// All returns the full hercules-lint suite: the three repo-contract
// analyzers plus the local shadow and nilness passes.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		MaporderAnalyzer,
		ObscontractAnalyzer,
		ShadowAnalyzer,
		NilnessAnalyzer,
	}
}

// Run executes the analyzers over one loaded package, applies
// //lint:allow suppression, appends directive-misuse findings, and
// returns everything sorted by source position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			findings:  &findings,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	dirs, bad := scanDirectives(pkg)
	findings = suppress(findings, dirs)
	findings = append(findings, bad...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
	return findings, nil
}

// directive is one parsed, well-formed //lint:allow comment.
type directive struct {
	analyzer string
	file     string // position filename
	line     int    // directive's own line
	trailing bool   // shares its line with code: suppresses that line
	lo, hi   token.Pos
}

// knownAnalyzerNames is the set a directive may name — the full suite,
// independent of which analyzers a particular run enables, so a
// fixture running one analyzer does not misreport directives aimed at
// another.
func knownAnalyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

const directivePrefix = "//lint:allow"

// scanDirectives parses every //lint:allow comment in the package. It
// returns the well-formed directives plus findings for malformed ones:
// a bare directive, a missing reason, and an unknown analyzer name are
// each themselves diagnostics — a suppression that does not say what
// it allows or why is exactly the silent drift the suite exists to
// prevent.
func scanDirectives(pkg *Package) ([]directive, []Finding) {
	known := knownAnalyzerNames()
	var dirs []directive
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Finding{
			Analyzer: DirectiveName,
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
			pos:      pos,
		})
	}
	for _, f := range pkg.Files {
		lines := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := c.Text[len(directivePrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowfoo — not this directive
				}
				// A trailing "// ..." inside the directive text is a
				// comment-in-comment (fixtures use it for // want).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					report(c.Pos(), "bare %s: name the analyzer and give a reason, e.g. %s wallclock report timestamp", directivePrefix, directivePrefix)
					continue
				case !known[fields[0]]:
					report(c.Pos(), "%s names unknown analyzer %q (known: %s)", directivePrefix, fields[0], strings.Join(sortedKeys(known), ", "))
					continue
				case len(fields) == 1:
					report(c.Pos(), "%s %s has no reason; say why the violation is legitimate", directivePrefix, fields[0])
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := directive{
					analyzer: fields[0],
					file:     pos.Filename,
					line:     pos.Line,
				}
				if first, ok := lines[pos.Line]; ok && first < c.Pos() {
					// Code precedes the directive on its line: it
					// suppresses that line only.
					d.trailing = true
				} else if lo, hi, ok := nextStatementRange(pkg.Fset, f, pos.Line); ok {
					// Own-line directive: it covers exactly the next
					// statement (or declaration / composite-literal
					// element) and nothing beyond it.
					d.lo, d.hi = lo, hi
				} else {
					continue // nothing follows; inert
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs, bad
}

// codeLines maps each source line to the earliest non-comment token
// position on it.
func codeLines(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	lines := make(map[int]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		line := fset.Position(n.Pos()).Line
		if p, ok := lines[line]; !ok || n.Pos() < p {
			lines[line] = n.Pos()
		}
		return true
	})
	return lines
}

// nextStatementRange finds the widest statement-like node that starts
// on the first code line after afterLine — the span an own-line
// //lint:allow directive covers.
func nextStatementRange(fset *token.FileSet, f *ast.File, afterLine int) (lo, hi token.Pos, ok bool) {
	targetLine := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		line := fset.Position(n.Pos()).Line
		if line > afterLine && (targetLine == 0 || line < targetLine) {
			targetLine = line
		}
		return true
	})
	if targetLine == 0 {
		return 0, 0, false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n.(type) {
		case ast.Stmt, ast.Decl, *ast.KeyValueExpr:
			if fset.Position(n.Pos()).Line == targetLine {
				if !ok || n.Pos() < lo {
					lo = n.Pos()
				}
				if !ok || n.End() > hi {
					hi = n.End()
				}
				ok = true
			}
		}
		return true
	})
	return lo, hi, ok
}

// suppress drops findings covered by a matching directive.
func suppress(findings []Finding, dirs []directive) []Finding {
	if len(dirs) == 0 {
		return findings
	}
	out := findings[:0]
	for _, f := range findings {
		allowed := false
		for _, d := range dirs {
			if d.analyzer != f.Analyzer || d.file != f.Pos.Filename {
				continue
			}
			if d.trailing && d.line == f.Pos.Line {
				allowed = true
				break
			}
			if !d.trailing && d.lo <= f.pos && f.pos < d.hi {
				allowed = true
				break
			}
		}
		if !allowed {
			out = append(out, f)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// inspectStack is ast.Inspect with the path of ancestors (outermost
// first, excluding n itself) passed to the callback.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
