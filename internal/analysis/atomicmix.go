package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicMixAnalyzer reports every call to a package-level sync/atomic
// function (atomic.AddInt64(&x, 1), atomic.LoadInt64(&x), ...). A location
// reached through such calls is a plain variable, so nothing stops another
// access from reading or writing it without sync/atomic, and that plain
// access races with every atomic one; the race detector only catches the
// schedules it happens to see. The typed wrappers (atomic.Int64,
// atomic.Bool and friends) make such mixing inexpressible, and their
// methods stay legal. The parallel pipelines (work-stealing shard
// builders, the lock-striped interner, the parallel soundness search)
// coordinate exclusively through them.
var AtomicMixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "report calls to package-level sync/atomic functions; use the typed atomics (atomic.Int64 and friends)",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(),
					"function-style sync/atomic call atomic.%s; use a typed atomic (atomic.Int64 and friends), whose methods make plain access inexpressible",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
