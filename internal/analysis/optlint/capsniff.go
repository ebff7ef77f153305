package optlint

import (
	"go/ast"
	"go/types"

	"optrule/internal/analysis"
)

// CapSniff flags every type assertion and type switch case in the root
// package and internal/... whose target is an interface declared in
// internal/relation. relation.Relation is the one read contract every
// backend and wrapper implements in full, so asking a relation which
// of its interfaces it satisfies picks a plan by method set: a wrapper
// that adds or hides a method would silently change the passes a
// mining call issues. Switches on concrete backend types are fine.
var CapSniff = &analysis.Analyzer{
	Name: "capsniff",
	Doc: `flag type assertions and type switches on interfaces declared in
internal/relation, so no engine path depends on a relation's method set`,
	Match: func(path string) bool { return path == modulePath || pkgMatcher("internal")(path) },
	Run:   runCapSniff,
}

func runCapSniff(pass *analysis.Pass) (any, error) {
	check := func(e ast.Expr) {
		named, ok := types.Unalias(pass.TypesInfo.TypeOf(e)).(*types.Named)
		if !ok {
			return
		}
		obj := named.Obj()
		if _, iface := named.Underlying().(*types.Interface); iface && obj.Pkg() != nil &&
			obj.Pkg().Path() == modulePath+"/internal/relation" && obj.Parent() == obj.Pkg().Scope() {
			pass.Reportf(e.Pos(), "type assertion on relation.%s sniffs a capability; every relation implements the whole Relation contract", obj.Name())
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.TypeAssertExpr:
				if v.Type != nil { // nil in a type switch's x.(type)
					check(v.Type)
				}
			case *ast.CaseClause:
				for _, e := range v.List {
					check(e)
				}
			}
			return true
		})
	}
	return nil, nil
}
