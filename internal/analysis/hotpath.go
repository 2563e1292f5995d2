package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath guards the allocation discipline of functions marked
// //uopvet:hotpath — the per-cycle step, the fetch-group item pool, and the
// BTB scratch path whose zero-alloc behaviour PR 1 and PR 3 measured into
// the AllocsPerRun tests. It flags the obvious per-cycle allocators:
//
//   - fmt string builders (Sprintf, Sprint, Sprintln, Errorf) anywhere in a
//     hot function — each call allocates at least the result,
//   - string concatenation inside a loop, which reallocates the buffer
//     every iteration, and
//   - composite literals that allocate their own storage in a loop: &T{...}
//     anywhere, and slice or map literals passed to append. A struct or
//     array value passed to append is copied into the slice's backing and
//     allocates nothing beyond the append's own growth, so it is not
//     reported.
//
// The analyzer is deliberately shallow — the AllocsPerRun tests remain the
// ground truth — but it catches the regressions reviewers actually write.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag obvious per-cycle allocators inside //uopvet:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHotpath(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

// loopRanges collects the position ranges of every for/range statement in
// body, so later checks can ask "is this node inside a loop".
func loopRanges(body *ast.BlockStmt) [][2]token.Pos {
	var loops [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, [2]token.Pos{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, [2]token.Pos{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	return loops
}

func inAny(loops [][2]token.Pos, pos token.Pos) bool {
	for _, l := range loops {
		if pos >= l[0] && pos < l[1] {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	loops := loopRanges(fd.Body)
	info := pass.Pkg.Info
	isString := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					switch fn.Name() {
					case "Sprintf", "Sprint", "Sprintln", "Errorf":
						pass.Reportf(n.Pos(),
							"fmt.%s allocates on every call; %s is marked //uopvet:hotpath, so build the value without fmt (or report through a pre-registered stats instrument)", fn.Name(), fd.Name.Name)
					}
				}
			}
			if isBuiltinAppend(pass, n) && inAny(loops, n.Pos()) {
				// &T{...} args are covered by the UnaryExpr case below.
				for _, arg := range n.Args[1:] {
					if lit, ok := arg.(*ast.CompositeLit); ok && ownsStorage(info.TypeOf(lit)) {
						pass.Reportf(arg.Pos(),
							"appending a slice or map literal in a loop inside hot function %s allocates per iteration; reuse a pooled slice or write into preallocated storage", fd.Name.Name)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && inAny(loops, n.Pos()) {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"&composite literal in a loop inside hot function %s escapes to the heap per iteration; reuse a pooled object instead", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && inAny(loops, n.Pos()) && isString(n.X) {
				pass.Reportf(n.Pos(),
					"string concatenation in a loop inside hot function %s reallocates every iteration; use a reused []byte or strings.Builder outside the loop", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && inAny(loops, n.Pos()) && len(n.Lhs) == 1 && isString(n.Lhs[0]) {
				pass.Reportf(n.Pos(),
					"string += in a loop inside hot function %s reallocates every iteration; use a reused []byte or strings.Builder outside the loop", fd.Name.Name)
			}
		}
		return true
	})
}

// ownsStorage reports whether a composite literal of type t allocates
// backing storage of its own: slice and map literals do, struct and array
// values do not.
func ownsStorage(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}
