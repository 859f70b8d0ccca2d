// Package lint is a project-aware static-analysis engine for the HighRPM
// tree. It enforces the invariants no compiler checks — bit-exact
// determinism of the training engine, map-iteration order, float-equality
// discipline, goroutine-leak hygiene in the serving tests, and handled
// Close/Flush/Write/Sync/Shutdown errors — so regressions surface on every
// verify run instead of in review.
//
// The engine is stdlib-only: packages are discovered with
// `go list -deps -test -export -json`, parsed with go/parser, and
// type-checked with go/types against the compiler's export data.
// Analyzers implement the Analyzer interface and report position-accurate
// diagnostics through a Pass. Individual findings are suppressed in
// source with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on, or on the line directly above, the offending line. A reason
// is mandatory, a directive naming a rule Default lacks is a finding, and
// so is a directive that suppressed nothing: a stale directive would
// silently hide the next real one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one pluggable rule. Run inspects a single type-checked
// package unit and reports findings through the Pass.
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and lint:ignore
	// directives.
	Name() string
	// Doc is a one-line description for the CLI rule catalogue.
	Doc() string
	// Run analyzes one package unit.
	Run(*Pass)
}

// Pass hands one analyzer one type-checked package unit.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	rule   string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos under the running analyzer's rule.
// Suppression via lint:ignore directives is applied by the engine.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// File is one parsed source file inside a package unit.
type File struct {
	Ast *ast.File
	// Name is the path as registered in the FileSet.
	Name string
	// Test reports whether this is a _test.go file.
	Test bool
}

// Package is one type-checked unit: either a package's GoFiles plus its
// in-package test files, or the external (xtest) test package.
type Package struct {
	// ImportPath is the canonical import path; external test units carry
	// the real package's path with a "_test" suffix.
	ImportPath string
	Dir        string
	Files      []*File
	Types      *types.Package
	Info       *types.Info
	// XTest reports an external test unit (package foo_test).
	XTest bool
}

// BasePath returns the import path with any xtest "_test" suffix removed,
// i.e. the path rules should match against.
func (p *Package) BasePath() string {
	if p.XTest {
		return strings.TrimSuffix(p.ImportPath, "_test")
	}
	return p.ImportPath
}

// ignore is one lint:ignore directive found in source.
type ignore struct {
	pos   token.Position
	rules []string
	// used is set when the directive suppressed at least one diagnostic.
	used bool
}

func (ig *ignore) matches(rule string, pos token.Position) bool {
	return ig.pos.Filename == pos.Filename && (ig.pos.Line == pos.Line || ig.pos.Line == pos.Line-1) &&
		slices.Contains(ig.rules, rule)
}

// Result is the outcome of one engine run.
type Result struct {
	// Diagnostics holds the findings, stale directives included (under
	// the "lint" pseudo-rule).
	Diagnostics []Diagnostic
	// TypeErrors collects go/types errors; the tree is expected to
	// compile (verify.sh builds before vetting), so these indicate an
	// engine or environment problem rather than a lint finding.
	TypeErrors []string
}

// directiveMarker opens the one directive form.
const directiveMarker = "//lint:ignore"

// parseIgnores extracts lint:ignore directives from a file. A malformed
// directive (no rule, or no reason) or one naming a rule outside known is
// reported under the "lint" pseudo-rule and suppresses nothing.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) []*ignore {
	var out []*ignore
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//lint:") {
				continue
			}
			pos := fset.Position(c.Pos())
			bad := func(format string, args ...any) {
				report(Diagnostic{Pos: pos, Rule: "lint", Message: fmt.Sprintf(format, args...)})
			}
			rest, ok := strings.CutPrefix(c.Text, directiveMarker)
			if !ok {
				bad("unknown lint directive %q", c.Text)
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				bad("malformed lint:ignore directive: want //lint:ignore <rule> <reason>")
				continue
			}
			rules := strings.Split(fields[0], ",")
			if i := slices.IndexFunc(rules, func(r string) bool { return !known[r] }); i >= 0 {
				bad("lint:ignore names %q, which is not a highrpm-vet rule", rules[i])
				continue
			}
			out = append(out, &ignore{pos: pos, rules: rules})
		}
	}
	return out
}

// Run loads the packages matched by patterns (relative to dir) and runs
// every Default analyzer over every loaded unit. Diagnostics are returned
// sorted by position; suppressed findings are dropped, and every directive
// that suppressed nothing becomes a finding of its own.
func Run(dir string, patterns []string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, typeErrs, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	res := &Result{TypeErrors: typeErrs}
	analyzers := Default()
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}

	var ignores []*ignore
	collect := func(d Diagnostic) { res.Diagnostics = append(res.Diagnostics, d) }
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ignores = append(ignores, parseIgnores(fset, f.Ast, known, collect)...)
		}
	}

	suppressed := func(d Diagnostic) bool {
		for _, ig := range ignores {
			if ig.matches(d.Rule, d.Pos) {
				ig.used = true
				return true
			}
		}
		return false
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset: fset,
				Pkg:  pkg,
				rule: a.Name(),
				report: func(d Diagnostic) {
					if !suppressed(d) {
						collect(d)
					}
				},
			}
			a.Run(pass)
		}
	}
	for _, ig := range ignores {
		if !ig.used {
			collect(Diagnostic{
				Pos:     ig.pos,
				Rule:    "lint",
				Message: fmt.Sprintf("lint:ignore %s suppresses nothing; delete the directive", strings.Join(ig.rules, ",")),
			})
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return res, nil
}
