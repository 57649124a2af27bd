package analysis

import (
	"go/ast"
	"go/types"
)

// PoolEscapeAnalyzer reports every Get on a recycler: a type named Pool or
// FreeList in a package named mem or sync. A recycled object is only
// borrowed, and after its Put the next Get hands it to another caller, so
// any reference kept past the Put turns into silent shared mutable state.
// Proving that no reference escapes takes a taint analysis; the
// repository needs none, because its per-call scratch lives in fixed
// arrays on the caller's stack (view.BinKey, graph.Ports.AppendForm) and
// nothing is recycled.
var PoolEscapeAnalyzer = &Analyzer{
	Name: "poolescape",
	Doc:  "report every Get on a recycler (mem.Pool, mem.FreeList, sync.Pool); keep per-call scratch on the stack",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Get" {
				return true
			}
			if name, ok := recyclerName(pass.Info.TypeOf(sel.X)); ok {
				pass.Reportf(call.Pos(),
					"Get on recycler %s: a recycled object is shared with the next Get after its Put; keep per-call scratch on the stack", name)
			}
			return true
		})
	}
	return nil
}

// recyclerName returns pkg.Name for a named type Pool or FreeList, possibly
// behind a pointer, from a package named mem or sync.
func recyclerName(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	name, pkg := named.Obj().Name(), named.Obj().Pkg().Name()
	if (name == "Pool" || name == "FreeList") && (pkg == "mem" || pkg == "sync") {
		return pkg + "." + name, true
	}
	return "", false
}
