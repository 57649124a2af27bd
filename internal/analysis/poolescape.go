package analysis

import (
	"go/ast"
	"go/types"
)

// PoolEscapeAnalyzer reports every Get on a sync.Pool. A pooled object is
// only borrowed, and after its Put the next Get hands it to another caller,
// so any reference kept past the Put turns into silent shared mutable
// state. Proving that no reference escapes takes a taint analysis; the
// repository needs none, because its per-call scratch lives in fixed
// arrays on the caller's stack (view.BinKey, graph.Ports.AppendForm) and
// nothing is pooled.
var PoolEscapeAnalyzer = &Analyzer{
	Name: "poolescape",
	Doc:  "report every Get on a sync.Pool; keep per-call scratch on the stack",
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
			if ok && sel.Sel.Name == "Get" && isSyncPool(pass.Info.TypeOf(sel.X)) {
				pass.Reportf(call.Pos(),
					"Get on sync.Pool: a pooled object is shared with the next Get after its Put; keep per-call scratch on the stack")
			}
			return true
		})
	}
	return nil
}

// isSyncPool reports whether t is sync.Pool, possibly behind a pointer.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}
