package analyzers

// Stdlib-only reimplementations of curated stock vet passes. The
// upstream golang.org/x/tools analyzers are not vendored in this module,
// so the multichecker bundles these deliberately narrower versions:
// each keeps the high-signal core of its namesake (the part expressible
// without SSA) and documents what it gives up. CI still runs the real
// `go vet` alongside, so nothing is lost there.

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphrules/graphrules/internal/analysis"
)

// CopyLocks flags values containing sync locks copied by value:
// by-value parameters and receivers, range-value copies, and local
// copies made by dereferencing a pointer.
var CopyLocks = &analysis.Analyzer{
	Name: "copylocks",
	Doc: `flag by-value copies of types containing sync.Mutex/RWMutex/WaitGroup/Once/Cond

A copied lock guards nothing: the copy and the original serialize
independently. This lite version (the upstream analyzer needs x/tools)
checks function parameters and receivers, range-value variables, and
x := *p copies.`,
	Run: runCopyLocks,
}

func runCopyLocks(pass *analysis.Pass) error {
	eachFuncBody(pass, func(fd *ast.FuncDecl) {
		var fields []*ast.Field
		if fd.Recv != nil {
			fields = append(fields, fd.Recv.List...)
		}
		if fd.Type.Params != nil {
			fields = append(fields, fd.Type.Params.List...)
		}
		for _, f := range fields {
			t := pass.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if _, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
				continue
			}
			if containsLock(t) {
				pass.ReportRangef(f.Type, "by-value parameter copies a lock (%s); pass a pointer", t.String())
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pass.TypeOf(n.Value); t != nil && containsLock(t) {
						pass.ReportRangef(n.Value, "range value copies a lock (%s); range over indices or use pointers", t.String())
					}
				}
			case *ast.UnaryExpr:
				// covered via assignment case below
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					star, ok := ast.Unparen(rhs).(*ast.StarExpr)
					if !ok {
						continue
					}
					if t := pass.TypeOf(star); t != nil && containsLock(t) {
						pass.ReportRangef(rhs, "dereference copies a lock (%s)", t.String())
					}
				}
			}
			return true
		})
	})
	return nil
}

// LoopClosure flags go/defer closures capturing the iteration variable
// of an enclosing loop.
var LoopClosure = &analysis.Analyzer{
	Name: "loopclosure",
	Doc: `flag go/defer closures capturing an enclosing loop's iteration variable

Under Go ≥1.22 loop variables are per-iteration, so a captured range
variable is no longer the classic last-value bug — but a deferred
closure over it still runs after the loop (holding the final iteration
alive), and goroutine captures remain a correctness smell the engine
avoids by passing the variable as an argument. Lite version of the
upstream pass.`,
	Run: runLoopClosure,
}

func runLoopClosure(pass *analysis.Pass) error {
	eachFuncBody(pass, func(fd *ast.FuncDecl) {
		var loopVars []map[types.Object]bool
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt, *ast.ForStmt:
					vars := map[types.Object]bool{}
					switch l := n.(type) {
					case *ast.RangeStmt:
						for _, e := range []ast.Expr{l.Key, l.Value} {
							if e != nil {
								if o := objectOf(pass.TypesInfo, e); o != nil {
									vars[o] = true
								}
							}
						}
					case *ast.ForStmt:
						if init, ok := l.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
							for _, e := range init.Lhs {
								if o := objectOf(pass.TypesInfo, e); o != nil {
									vars[o] = true
								}
							}
						}
					}
					loopVars = append(loopVars, vars)
					var body *ast.BlockStmt
					if r, ok := n.(*ast.RangeStmt); ok {
						body = r.Body
					} else {
						body = n.(*ast.ForStmt).Body
					}
					walk(body)
					loopVars = loopVars[:len(loopVars)-1]
					return false
				case *ast.GoStmt:
					checkClosureCapture(pass, n.Call, loopVars, "go")
				case *ast.DeferStmt:
					checkClosureCapture(pass, n.Call, loopVars, "defer")
				}
				return true
			})
		}
		walk(fd.Body)
	})
	return nil
}

func checkClosureCapture(pass *analysis.Pass, call *ast.CallExpr, loopVars []map[types.Object]bool, kind string) {
	if len(loopVars) == 0 {
		return
	}
	fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		for _, vars := range loopVars {
			if vars[obj] {
				pass.Reportf(id.Pos(), "%s closure captures loop variable %s; pass it as an argument instead", kind, id.Name)
				return true
			}
		}
		return true
	})
}

// UnusedWrite flags writes to fields of a range-value copy that nothing
// reads afterwards — the classic "mutated the copy, not the element"
// bug.
var UnusedWrite = &analysis.Analyzer{
	Name: "unusedwrite",
	Doc: `flag field writes to a range-value struct copy never read afterwards

for _, s := range xs { s.Field = v } mutates a per-iteration copy; the
slice is unchanged. Flagged only when the copy is never read after the
write, so locally-used scratch copies stay legal. Lite version of the
upstream SSA-based pass.`,
	Run: runUnusedWrite,
}

func runUnusedWrite(pass *analysis.Pass) error {
	eachFuncBody(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || rs.Value == nil {
				return true
			}
			obj := objectOf(pass.TypesInfo, rs.Value)
			if obj == nil {
				return true
			}
			if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
				return true
			}
			var writes []*ast.AssignStmt
			var lastUse token.Pos
			ast.Inspect(rs.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok &&
							objectOf(pass.TypesInfo, sel.X) == obj {
							writes = append(writes, n)
							return true
						}
					}
				case *ast.Ident:
					if pass.TypesInfo.Uses[n] == obj && n.End() > lastUse {
						lastUse = n.End()
					}
				}
				return true
			})
			for _, wr := range writes {
				// The write's own LHS read of the variable doesn't count.
				if lastUse <= wr.End() {
					pass.Reportf(wr.Pos(), "write to range-value copy %s is never read; the ranged element is unchanged (range over indices or pointers)", obj.Name())
				}
			}
			return true
		})
	})
	return nil
}

// Nilness flags uses of a variable inside the then-block of its own
// nil-check — a guaranteed nil dereference.
var Nilness = &analysis.Analyzer{
	Name: "nilness",
	Doc: `flag uses of v inside "if v == nil { ... }" before any reassignment

Dereferencing, selecting from, or calling a method on a pointer or
interface value in the branch that just proved it nil panics (or, for
interfaces, calls through a nil value). Lite, syntactic version of the
upstream SSA-based pass.`,
	Run: runNilness,
}

func runNilness(pass *analysis.Pass) error {
	eachFuncBody(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			cond, ok := ifs.Cond.(*ast.BinaryExpr)
			if !ok || cond.Op != token.EQL {
				return true
			}
			obj := nilCheckedObj(pass, cond)
			if obj == nil {
				return true
			}
			switch types.Unalias(obj.Type()).(type) {
			case *types.Pointer, *types.Interface:
			default:
				if !types.IsInterface(obj.Type()) {
					return true
				}
			}
			reportNilUses(pass, ifs.Body, obj)
			return true
		})
	})
	return nil
}

func reportNilUses(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) {
	reassigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if objectOf(pass.TypesInfo, lhs) == obj {
					reassigned = true
					return false
				}
			}
		case *ast.SelectorExpr:
			if objectOf(pass.TypesInfo, n.X) == obj {
				pass.ReportRangef(n, "%s is nil on this branch; this selector panics", obj.Name())
				return false
			}
		case *ast.StarExpr:
			if objectOf(pass.TypesInfo, n.X) == obj {
				pass.ReportRangef(n, "%s is nil on this branch; this dereference panics", obj.Name())
				return false
			}
		case *ast.FuncLit:
			return false // separate dataflow
		}
		return true
	})
}
