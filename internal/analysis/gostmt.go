package analysis

import "go/ast"

// GoStmtAnalyzer reports every go statement outside package cancel
// (internal/cancel, or an analyzer-testdata replica of it). cancel.Go is
// the one place goroutines start: it counts them into a WaitGroup before
// any of them runs and hands the caller their wait, so an Add racing its
// Wait, or a goroutine nobody waits for, cannot be written anywhere else.
// The rule does not see what a goroutine reads: an fn passed to cancel.Go
// can still capture state its caller keeps writing, and -race with the sim
// and obs stress tests is what catches that. Test files are not analyzed.
var GoStmtAnalyzer = &Analyzer{
	Name: "gostmt",
	Doc:  "report go statements outside internal/cancel; start goroutines with cancel.Go",
	Run:  runGoStmt,
}

func runGoStmt(pass *Pass) error {
	if pass.Pkg.Name() == "cancel" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(gs.Pos(),
					"go statement outside internal/cancel; start goroutines with cancel.Go, which counts them before they run and returns their wait")
			}
			return true
		})
	}
	return nil
}
