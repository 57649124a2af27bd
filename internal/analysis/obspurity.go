package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsPurityAnalyzer keeps the observability layer one-directional: metrics
// flow from the pipelines into internal/obs, never back into decoder
// verdicts. Inside any method or function literal with the Decide signature
// (one *view.View parameter, bool result) it reports
//
//   - wall-clock reads (time.Now, time.Since, time.Until) — a verdict that
//     depends on when it was computed is not a function of the view, and
//     nondet's internal/obs exemption must not become a tunnel for clock
//     reads to re-enter decoders via obs helpers, and
//   - any call into a package named "obs" or its export subpackage (package
//     path suffix "obs/export"), whether a package-level function (obs.Now,
//     export.WritePrometheus) or a method whose receiver type lives there
//     (Counter.Inc, Scope.Counter, Histogram.Observe, Server.MarkReady):
//     reading a counter makes the verdict depend on how often the pipeline
//     ran; writing one from Decide is receiver/global state by another
//     name, and would let telemetry feed back into verdicts.
//
// Sanctioned counting wrappers (core.InstrumentDecoder) carry
// `//lint:ignore obspurity` directives; the runtime complement is the
// sanitizer's instrumentation probe (internal/sanitize), which re-runs each
// Decide under a live instrumented copy and fails on any verdict change.
var ObsPurityAnalyzer = &Analyzer{
	Name: "obspurity",
	Doc:  "report Decide bodies that read the clock or call into the observability layer",
	Run:  runObsPurity,
}

// obsPurityClock lists the time-package functions whose result varies call
// to call; conversions (time.Duration) and arithmetic stay legal.
var obsPurityClock = map[string]bool{"Now": true, "Since": true, "Until": true}

// isObsLayerPkg reports whether pkg belongs to the observability layer the
// purity contract fences off: the obs package itself (matched by name, so
// the fixture replica counts too) or its export subpackage (matched by path
// suffix, since its package name is "export").
func isObsLayerPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Name() == "obs" || strings.HasSuffix(pkg.Path(), "obs/export")
}

func runObsPurity(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if isDecideMethod(pass.Info, fn) && fn.Body != nil {
					checkObsPurityBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				if hasDecideSignature(pass.Info, fn.Type) {
					checkObsPurityBody(pass, fn.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkObsPurityBody reports clock reads and obs-layer calls within one
// Decide body, nested function literals included (they run as part of the
// same decision).
func checkObsPurityBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// pkg.Func form: a call through an imported package name.
		if pkgIdent, ok := sel.X.(*ast.Ident); ok {
			if pkgName, ok := pass.Info.Uses[pkgIdent].(*types.PkgName); ok {
				if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
					return true
				}
				switch {
				case pkgName.Imported().Path() == "time" && obsPurityClock[sel.Sel.Name]:
					pass.Reportf(call.Pos(),
						"Decide must not read the clock: call to time.%s makes the verdict depend on when it ran, not on the view",
						sel.Sel.Name)
				case isObsLayerPkg(pkgName.Imported()):
					pass.Reportf(call.Pos(),
						"Decide must not call into the observability layer: %s.%s (metrics flow pipeline -> obs, never back into verdicts)",
						pkgName.Imported().Name(), sel.Sel.Name)
				}
				return true
			}
		}
		// Method form: a call whose method is declared in the obs layer
		// (Counter.Inc, Scope.Counter, Server.MarkReady, ...), resolved
		// through the type-checker so aliased and embedded receivers are
		// covered.
		if s, ok := pass.Info.Selections[sel]; ok {
			if fn, ok := s.Obj().(*types.Func); ok && isObsLayerPkg(fn.Pkg()) {
				pass.Reportf(call.Pos(),
					"Decide must not call into the observability layer: %s.%s (metrics flow pipeline -> obs, never back into verdicts)",
					exprString(sel.X), sel.Sel.Name)
			}
		}
		return true
	})
}
