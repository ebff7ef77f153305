package optlint

import (
	"go/ast"

	"optrule/internal/analysis"
)

// GoStmt flags every go statement in the root package and internal/...
// outside internal/fanout. The engine has one parallel scheduler: the
// fanout worker pool, on which the counting executor, the region
// kernels and the extraction tasks all run. A goroutine started
// anywhere else is a second scheduler, with its own teardown, its own
// ordering and its own share of the CPUs, that the worker-count and
// fault-matrix suites do not cover. An intended exception (a storage
// pipeline stage, not a fan-out) carries a reasoned waiver.
var GoStmt = &analysis.Analyzer{
	Name: "gostmt",
	Doc: `flag go statements in the root package and internal/... outside
internal/fanout, so every fan-out runs on the one worker pool`,
	Match: func(path string) bool {
		return path == modulePath || pkgMatcher("internal")(path) && !pkgMatcher("internal/fanout")(path)
	},
	Run: runGoStmt,
}

func runGoStmt(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement outside internal/fanout starts a second scheduler; run the work on fanout.Run or fanout.Each")
			}
			return true
		})
	}
	return nil, nil
}
