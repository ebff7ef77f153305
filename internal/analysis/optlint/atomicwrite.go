package optlint

import (
	"go/ast"
	"go/types"

	"optrule/internal/analysis"
)

// AtomicWrite flags os.Create / os.WriteFile calls, and os.OpenFile
// calls whose flags include os.O_TRUNC, in an enclosing function that
// never calls os.Rename: truncating and rewriting a destination in
// place means a crash mid-write leaves a truncated, unreadable file
// where valid data may have been. Durable artifacts (relation files,
// fresh shard manifests, converted outputs) must stage into a temp
// file in the destination directory and rename over the target on
// success, the pattern ConvertDisk and DiskWriter already follow.
// os.CreateTemp is always fine — a temp file is the staging half of
// the pattern — and so is an os.OpenFile without O_TRUNC: a positioned
// write past committed data (the shard manifest's grow commit) leaves
// the existing bytes intact.
var AtomicWrite = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc: `flag os.Create/os.WriteFile, and os.OpenFile with os.O_TRUNC,
on destinations in functions that never os.Rename, where a crash
mid-write destroys the previous valid file instead of leaving it
untouched`,
	Match: inModule,
	Run:   runAtomicWrite,
}

func runAtomicWrite(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	forEachFuncBody(pass, func(decl *ast.FuncDecl) {
		renames := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if isPkgFunc(calleeFunc(info, call), "os", "Rename") {
					renames = true
				}
			}
			return !renames
		})
		if renames {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			switch {
			case isPkgFunc(fn, "os", "Create"):
				pass.Reportf(call.Pos(),
					"os.Create writes the destination in place; stage into an os.CreateTemp file in the target directory and os.Rename it over the destination on success")
			case isPkgFunc(fn, "os", "WriteFile"):
				pass.Reportf(call.Pos(),
					"os.WriteFile writes the destination in place; write a temp file and os.Rename it over the destination on success")
			case isPkgFunc(fn, "os", "OpenFile") && len(call.Args) == 3 && truncates(info, call.Args[1]):
				pass.Reportf(call.Pos(),
					"os.OpenFile with os.O_TRUNC rewrites the destination in place; stage into an os.CreateTemp file and os.Rename it over the destination on success")
			}
			return true
		})
	})
	return nil, nil
}

// truncates reports whether an os.OpenFile flag expression mentions
// os.O_TRUNC.
func truncates(info *types.Info, flags ast.Expr) bool {
	found := false
	ast.Inspect(flags, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := info.Uses[id].(*types.Const); ok && c.Pkg() != nil && c.Pkg().Path() == "os" && c.Name() == "O_TRUNC" {
				found = true
			}
		}
		return !found
	})
	return found
}
