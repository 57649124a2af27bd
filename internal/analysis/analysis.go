// Package analysis is a dependency-free static-analysis framework plus the
// lcplint analyzers that enforce the repository's decoder determinism
// contract (core.Decoder: "implementations must be pure functions of the
// view"). It mirrors the golang.org/x/tools/go/analysis API surface —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard
// library's go/ast, go/parser, and go/types so the linter works offline
// with no external modules.
//
// Ten analyzers are provided (see All). Five enforce the determinism
// contract:
//
//   - decoderpurity: a Decide method must not write receiver fields,
//     package-level variables, or mutate its *view.View argument.
//   - maporder: iteration order of a Go map must not flow into an
//     order-sensitive accumulator (slice append, string concatenation)
//     without a subsequent sort.
//   - nondet: library packages must not call ambient-nondeterminism
//     sources (time.Now, global math/rand, os.Getenv, ...).
//   - anonid: a decoder whose Anonymous() constantly returns true must not
//     read view identifiers in Decide.
//   - obspurity: a Decide body must not read the clock or call into the
//     observability layer (internal/obs); metrics flow out of the
//     pipelines, never back into verdicts.
//
// One enforces the hiding contract:
//
//   - certflow: interprocedural taint analysis from certificate sources
//     (view/Labeled label fields, canonical keys, Certify results) to
//     observability and logging sinks; raw label bytes must never become
//     observable — only lengths and digests (obs.Redact*, view.KeyDigest).
//
// And two audit the concurrent pipelines (copies of values holding a
// lock or a typed atomic are left to go vet's copylocks pass):
//
//   - atomicmix: no function-style sync/atomic calls; the typed atomics
//     make a plain access to an atomic location inexpressible.
//   - gostmt: no go statement outside internal/cancel; goroutines start
//     through cancel.Go, which counts them before they run.
//
// One guards the memory-reuse discipline (internal/mem):
//
//   - poolescape: no Get on a sync.Pool; per-call scratch lives on the
//     caller's stack, so no borrowed buffer can outlive its Put.
//
// And one enforces the cancellation-plumbing discipline (internal/engine):
//
//   - ctxflow: a context.Context parameter comes first, is never stored in
//     a struct field, and the cancellation-threaded packages (engine, core,
//     nbhd, sim) never mint their own context.Background/TODO roots — they
//     thread the caller's context or the nil never-cancelled sentinel.
//
// The analyzers run over packages loaded by Load (backed by `go list` and
// the go/types source importer) and are wired into the cmd/lcplint
// multichecker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the package's parsed (non-test) source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full lcplint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		DecoderPurityAnalyzer,
		MapOrderAnalyzer,
		NondetAnalyzer,
		AnonIDAnalyzer,
		ObsPurityAnalyzer,
		CertflowAnalyzer,
		AtomicMixAnalyzer,
		GoStmtAnalyzer,
		PoolEscapeAnalyzer,
		CtxFlowAnalyzer,
	}
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position, minus any suppressed by `//lint:ignore`
// directives. Analyzer runtime errors are returned after all packages have
// been attempted.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var firstErr error
	for _, pkg := range pkgs {
		ignores := ignoreIndex(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report: func(d Diagnostic) {
					if !ignores.suppresses(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, firstErr
}

// ignoreRe matches suppression directives of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory: a suppression must explain itself to the next
// reader, exactly like staticcheck's directive of the same name.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+\S`)

// ignoreSet indexes the suppression directives of one package:
// filename -> line -> analyzer names silenced on that line.
type ignoreSet map[string]map[int]map[string]bool

// ignoreIndex scans a package's comments for //lint:ignore directives. A
// directive silences the named analyzers on its own line (trailing
// comment) and on the following line (directive on a line of its own).
func ignoreIndex(pkg *Package) ignoreSet {
	idx := ignoreSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					idx[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := lines[line]
					if set == nil {
						set = map[string]bool{}
						lines[line] = set
					}
					for _, name := range strings.Split(m[1], ",") {
						set[strings.TrimSpace(name)] = true
					}
				}
			}
		}
	}
	return idx
}

// suppresses reports whether d is silenced by a //lint:ignore directive.
func (s ignoreSet) suppresses(d Diagnostic) bool {
	set := s[d.Pos.Filename][d.Pos.Line]
	return set[d.Analyzer]
}

// lhsRoot unwraps selectors, indexing, dereferences, parens, and type
// assertions around an assignable expression and returns the base
// identifier, or nil if the base is not a plain identifier (e.g. a call
// result).
func lhsRoot(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.TypeAssertExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isViewPtr reports whether t is *view.View for any package named "view"
// (the real hidinglcp/internal/view or an analyzer-testdata replica).
func isViewPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "View" && obj.Pkg() != nil && obj.Pkg().Name() == "view"
}

// isDecideMethod reports whether fn is a decoder Decide method or function:
// named Decide, with exactly one parameter of type *view.View and a single
// bool result.
func isDecideMethod(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Name.Name != "Decide" || fn.Recv == nil {
		return false
	}
	return hasDecideSignature(info, fn.Type)
}

// hasDecideSignature reports whether the function type takes exactly one
// *view.View and returns exactly one bool.
func hasDecideSignature(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 1 || ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	if len(ft.Params.List[0].Names) > 1 {
		return false
	}
	pt := info.TypeOf(ft.Params.List[0].Type)
	if pt == nil || !isViewPtr(pt) {
		return false
	}
	rt := info.TypeOf(ft.Results.List[0].Type)
	basic, ok := rt.(*types.Basic)
	return ok && basic.Kind() == types.Bool
}
