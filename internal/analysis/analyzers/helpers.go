// Package analyzers holds the engine-invariant analyzer suite bundled
// into cmd/graphrulesvet: four custom analyzers encoding this engine's
// hand-enforced disciplines (lockorder, ctxflow, typederr, frozenwrite)
// plus stdlib-only reimplementations of curated stock vet
// passes (copylocks, loopclosure, unusedwrite, nilness). See Registry.
package analyzers

import (
	"go/ast"
	"go/types"

	"github.com/graphrules/graphrules/internal/analysis"
)

// eachFuncBody visits every function body in the pass's non-test files:
// declared functions with their FuncDecl, and each top-level closure is
// reached through its enclosing declaration's body walk.
func eachFuncBody(pass *analysis.Pass, fn func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		if analysis.SkipTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// calleeOf resolves the called function object of a call expression,
// looking through parentheses. Returns nil for indirect calls, builtins
// and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether the call is to the named function of the
// named package (by package path), e.g. isPkgFunc(info, call, "context",
// "Background").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeOf(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath && f.Name() == name
}

// methodName returns the bare selector name of a method-shaped call
// (x.Sel(...)), or "".
func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// namedOf unwraps pointers and aliases to the underlying named type.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// implementsError reports whether t (or *t) has an Error() string
// method, i.e. is a concrete error implementation.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// objectOf returns the object an identifier expression denotes, looking
// through parens; nil for anything more complex.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if o := info.Uses[id]; o != nil {
			return o
		}
		return info.Defs[id]
	}
	return nil
}

// containsLock reports whether t directly or transitively contains a
// sync lock type (Mutex, RWMutex, WaitGroup, Once, Cond) by value.
func containsLock(t types.Type) bool {
	return containsLock1(t, map[types.Type]bool{})
}

func containsLock1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		if p := n.Obj().Pkg(); p != nil && p.Path() == "sync" {
			switch n.Obj().Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return true
			}
		}
		return containsLock1(n.Underlying(), seen)
	}
	if st, ok := t.(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if containsLock1(st.Field(i).Type(), seen) {
				return true
			}
		}
	}
	if arr, ok := t.(*types.Array); ok {
		return containsLock1(arr.Elem(), seen)
	}
	return false
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	if p := n.Obj().Pkg(); p == nil || p.Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}
