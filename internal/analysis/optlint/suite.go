// Package optlint is the engine's analyzer suite: eight checks that
// mechanically enforce the invariants optrule's correctness arguments
// lean on — deterministic rule output, integer-exact parallel merges,
// accurate BytesRead accounting, crash-safe writes, one parallel
// scheduler, and one storage contract. cmd/optlint
// runs the suite standalone or under `go vet -vettool`; the self-check
// test keeps the repo clean; intended exceptions carry
// //optlint:ignore <analyzer> <reason> directives.
package optlint

import (
	"go/ast"
	"go/types"
	"strings"

	"optrule/internal/analysis"
)

// Suite returns the full analyzer suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		NonDet,
		FloatMerge,
		ByteCount,
		AtomicWrite,
		CloseCheck,
		GoStmt,
		CapSniff,
	}
}

// modulePath is the import-path root the scope matchers hang off.
const modulePath = "optrule"

// inModule matches every package of this module (testdata packages,
// which go list reports under their synthetic paths, included).
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// pkgMatcher builds a Match function accepting exactly the listed
// module-relative packages ("" means the root package) and their
// subpackages.
func pkgMatcher(rels ...string) func(string) bool {
	return func(path string) bool {
		for _, rel := range rels {
			full := modulePath
			if rel != "" {
				full = modulePath + "/" + rel
			}
			if path == full || strings.HasPrefix(path, full+"/") {
				return true
			}
		}
		return false
	}
}

// rootIdent peels selectors, indexes, slices, stars, parens, and calls
// off an expression and returns the base identifier: the x of
// x.f[i].g. Nil when the base is not an identifier (a literal, a call
// result, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// rootObj resolves the base identifier of e to its object.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return info.ObjectOf(id)
}

// calleeFunc resolves a call's static callee: a package function,
// a method, or nil for builtins, conversions, and dynamic calls
// through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is one of the named functions of the
// package at pkgPath (methods excluded).
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if fn.Signature().Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.ObjectOf(id).(*types.Builtin)
	return ok
}

// declaredOutside reports whether obj's declaration lies outside the
// node n (so writes to it inside n escape n).
func declaredOutside(obj types.Object, n ast.Node) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < n.Pos() || obj.Pos() >= n.End()
}

// forEachFuncBody visits every function body in the package: declared
// functions and methods. Function literals are part of their enclosing
// body and are visited with it.
func forEachFuncBody(pass *analysis.Pass, visit func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
