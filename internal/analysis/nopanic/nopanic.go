// Package nopanic defines an analyzer that keeps panic out of internal
// library code. A server that panics on bad input is a denial of service;
// library layers must return errors and let the boundary (cmd/, the
// gateway) decide. Panics remain legal in exactly the places the codebase
// documents them:
//
//   - functions whose name starts with Must/must (by construction, "panic
//     instead of returning an error" helpers);
//   - functions whose doc comment says so (contains the word "panic"),
//     the convention for invariant-violation guards like pin-count
//     underflow, where continuing would corrupt data.
//
// Everything else in internal/* is flagged. Test files are exempt.
package nopanic

import (
	"go/ast"
	"go/types"
	"strings"

	"postlob/internal/analysis"
)

// Analyzer reports undocumented panics in internal packages.
var Analyzer = &analysis.Analyzer{
	Name: "nopanic",
	Doc:  "forbid panic in internal/* library code outside documented invariant-violation helpers",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg == nil || !strings.Contains(pass.Pkg.Path()+"/", "internal/") {
		return nil, nil
	}
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if allowed(fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					// Only the builtin counts, not a local function that
					// happens to be named panic.
					if _, isBuiltin := analysis.ObjectOf(pass.TypesInfo, id).(*types.Builtin); isBuiltin {
						pass.Reportf(call.Pos(),
							"panic in internal package %s; return an error, or document the invariant ('Panics if ...') on %s",
							pass.Pkg.Path(), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// allowed reports whether fn is a documented panic site: a Must-helper or a
// function whose doc comment mentions panicking.
func allowed(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
		return true
	}
	return fn.Doc != nil && strings.Contains(strings.ToLower(fn.Doc.Text()), "panic")
}
