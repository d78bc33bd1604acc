package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// funcPkgPath returns the defining package path of fn, or "" for
// builtins/error methods.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgFunc reports whether fn is the package-level function pkg.name
// (no receiver).
func isPkgFunc(fn *types.Func, pkg, name string) bool {
	if fn == nil || fn.Name() != name || funcPkgPath(fn) != pkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// recvNamed returns the package path and type name of fn's receiver's
// named type (pointers dereferenced), or ok=false for non-methods and
// methods on unnamed receivers.
func recvNamed(fn *types.Func) (pkgPath, typeName string, ok bool) {
	if fn == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, nok := t.(*types.Named)
	if !nok {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// isMethodOn reports whether fn is a method named name on pkg.typeName.
func isMethodOn(fn *types.Func, pkg, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	p, t, ok := recvNamed(fn)
	return ok && p == pkg && t == typeName
}

// lintableFuncs yields every function body in the package's lintable
// files: declared functions and methods (function literals inside them
// are visited as part of the enclosing body by inspecting it).
func lintableFuncs(pass *analysis.Pass, visit func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files() {
		if !pass.Lintable(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// objOf resolves an identifier to its object via Uses or Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// mentionsObj reports whether expr references obj anywhere.
func mentionsObj(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a block always transfers control out
// (return, branch, or panic as its final statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
