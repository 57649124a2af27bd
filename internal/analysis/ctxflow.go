package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer enforces the cancellation-plumbing discipline the engine
// layer introduced: a context.Context travels down the call tree as an
// explicit argument, never sideways or out of thin air. It reports
//
//   - a context.Context parameter that is not the first parameter (after
//     the receiver) — mixed-position contexts make call sites ambiguous
//     about which scope governs the work, and
//   - a context.Context stored in a struct field — a struct-held context
//     outlives the call it was scoped to, so cancellation no longer maps
//     to the dynamic extent of the work (pass it through parameters), and
//   - any call to context.Background or context.TODO inside the
//     cancellation-threaded packages (engine, core, nbhd, sim, matched by
//     package name so fixture replicas count): minting a fresh root there
//     detaches the work from the caller's deadline — these packages treat
//     a nil context as the never-cancelled sentinel instead, and
//   - any call inside those packages that passes the untyped nil literal
//     where a context.Context parameter is expected: that is exactly how a
//     bare wrapper around a (ctx, sc, …) pipeline is written, so the rule
//     keeps each pipeline at one context-taking entry point. Forward the
//     caller's ctx instead; only callers outside these packages (CLIs,
//     benchmarks, tests) pick the nil sentinel.
//
// The first two rules apply everywhere; the last two only inside the
// restricted packages, since CLIs and tests legitimately create roots and
// run the never-cancelled path. (The loader never hands test files to an
// analyzer.)
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "report misplaced context parameters, struct-stored contexts, and fresh context roots inside the cancellation-threaded packages",
	Run:  runCtxFlow,
}

// ctxFlowRestricted names the packages (by package name, like obspurity's
// layer match) that must never mint their own context root: everything
// beneath the engine dispatch layer threads the caller's context or the
// nil never-cancelled sentinel. "ctxflow" admits the analyzer's own
// fixture package.
var ctxFlowRestricted = map[string]bool{
	"engine": true, "core": true, "nbhd": true, "sim": true, "ctxflow": true,
}

// isContextType reports whether t is context.Context from the standard
// library.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func runCtxFlow(pass *Pass) error {
	restricted := ctxFlowRestricted[pass.Pkg.Name()]
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				checkCtxParamPosition(pass, node.Type)
			case *ast.FuncLit:
				checkCtxParamPosition(pass, node.Type)
			case *ast.StructType:
				checkCtxStructFields(pass, node)
			case *ast.CallExpr:
				if restricted {
					checkCtxRootCall(pass, node)
					checkCtxNilArg(pass, node)
				}
			}
			return true
		})
	}
	return nil
}

// checkCtxParamPosition reports a context.Context parameter at any
// flattened position other than the first.
func checkCtxParamPosition(pass *Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		t := pass.Info.TypeOf(field.Type)
		// A field may declare several names ("a, b int") or none ("int").
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(t) && idx > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter, not parameter %d", idx+1)
		}
		idx += n
	}
}

// checkCtxStructFields reports struct fields of type context.Context.
func checkCtxStructFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if isContextType(pass.Info.TypeOf(field.Type)) {
			pass.Reportf(field.Pos(),
				"context.Context must not be stored in a struct field: a struct-held context outlives its call scope (thread it through parameters)")
		}
	}
}

// checkCtxRootCall reports context.Background()/context.TODO() calls.
func checkCtxRootCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[pkgIdent].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s must not be called in package %s: it detaches the work from the caller's deadline (accept a context parameter; nil is the never-cancelled sentinel)",
		sel.Sel.Name, pass.Pkg.Name())
}

// checkCtxNilArg reports the untyped nil literal passed as a
// context.Context argument.
func checkCtxNilArg(pass *Pass, call *ast.CallExpr) {
	t := pass.Info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return // a conversion, not a call
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if !pass.Info.Types[arg].IsNil() {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if !call.Ellipsis.IsValid() {
				pt = pt.(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isContextType(pt) {
			pass.Reportf(arg.Pos(),
				"nil passed as context.Context in package %s: forward the caller's context (a nil-context wrapper duplicates the pipeline's entry point)",
				pass.Pkg.Name())
		}
	}
}
