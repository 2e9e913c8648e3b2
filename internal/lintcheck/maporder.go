package lintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MaporderAnalyzer enforces the map-iteration-order contract: ranging
// over a map is fine for commutative aggregation (integer sums,
// counters, map writes), but the moment the body appends to a slice,
// folds a float or string into a variable that outlives it, writes an
// exported result field, emits telemetry or writes output, the map's
// random iteration order leaks into observable state — the classic
// silent killer of replay byte-identity. The loop is accepted when a
// deterministic sort follows it in the same block (the collect-then-
// sort idiom); otherwise iterate over sorted keys.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "forbid ranging over a map when the body appends, folds floats or strings, writes exported " +
		"fields or emits output/telemetry, unless a deterministic sort follows in the same block",
	Run: runMaporder,
}

// fmtPrintFuncs are the fmt functions whose call inside a map range
// emits output in iteration order.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names treated as emission sinks: once
// bytes or events leave through one of these in map order, the output
// is nondeterministic.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteEvents": true,
	"Encode": true, "Emit": true, "Export": true,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			sinkPos, sinkDesc := mapOrderSink(pass, rs.Body)
			if sinkPos == token.NoPos {
				return true
			}
			if sortFollows(pass, rs, stack) {
				return true
			}
			pass.Reportf(rs.For,
				"map iteration order reaches an order-sensitive sink (%s, line %d) with no deterministic sort afterwards; range over sorted keys or sort the result",
				sinkDesc, pass.Fset.Position(sinkPos).Line)
			return true
		})
	}
	return nil
}

// mapOrderSink scans a map-range body for the first statement whose
// effect depends on iteration order.
func mapOrderSink(pass *Pass, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var desc string
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					// Appending to a slice declared inside the loop
					// body is per-iteration accumulation (typically
					// stored back under the loop key) and carries no
					// cross-iteration order; only slices that outlive
					// the body observe iteration order.
					if len(x.Args) > 0 && declaredOutside(pass, x.Args[0], body) {
						pos, desc = x.Pos(), "append to a slice"
						return false
					}
				}
			}
			if fn := calleeFunc(pass, x); fn != nil && fn.Pkg() != nil {
				sig, _ := fn.Type().(*types.Signature)
				isMethod := sig != nil && sig.Recv() != nil
				switch {
				case fn.Pkg().Path() == "fmt" && !isMethod && fmtPrintFuncs[fn.Name()]:
					pos, desc = x.Pos(), "fmt."+fn.Name()+" output"
					return false
				case isMethod && writerMethods[fn.Name()]:
					pos, desc = x.Pos(), "writer/emitter call ("+fn.Name()+")"
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				// A float, complex or string compound assignment is a
				// fold whose result depends on the order of its terms,
				// unless it is keyed (sums[k] += v) or its target dies
				// with the iteration.
				if x.Tok != token.ASSIGN && x.Tok != token.DEFINE && inexactType(pass.TypesInfo.TypeOf(lhs)) {
					if _, keyed := ast.Unparen(lhs).(*ast.IndexExpr); !keyed && declaredOutside(pass, lhs, body) {
						pos, desc = lhs.Pos(), "order-dependent fold ("+types.ExprString(lhs)+")"
						return false
					}
				}
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !ast.IsExported(sel.Sel.Name) {
					continue
				}
				// Writing a constant (res.Satisfied = false) is an
				// order-insensitive fold; map index writes
				// (snap.Counters[k] = v) are keyed and unflagged. Only
				// a loop-dependent value written through a selector
				// observes iteration order.
				if i < len(x.Rhs) {
					if tv, ok := pass.TypesInfo.Types[x.Rhs[i]]; ok && tv.Value != nil {
						continue
					}
				}
				// Compound integer folds (res.N += n) are exactly
				// commutative; float and string folds are not.
				if x.Tok != token.ASSIGN {
					if b, ok := pass.TypesInfo.TypeOf(sel).Underlying().(*types.Basic); ok &&
						b.Info()&(types.IsInteger|types.IsBoolean) != 0 {
						continue
					}
				}
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
					pos, desc = lhs.Pos(), "exported field write ("+sel.Sel.Name+")"
					return false
				}
			}
		}
		return true
	})
	return pos, desc
}

// inexactType reports whether t is a float, complex or string type,
// whose compound folds (+=, *=, ...) are not exactly commutative.
func inexactType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
}

// declaredOutside reports whether the expression's root variable was
// declared outside the given body (true also when the root cannot be
// resolved — unknown targets are assumed to escape).
func declaredOutside(pass *Pass, e ast.Expr, body *ast.BlockStmt) bool {
	root := rootIdent(ast.Unparen(e))
	if root == nil {
		return true
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < body.Pos() || obj.Pos() >= body.End()
}

// sortFollows reports whether a deterministic sort (package sort or
// slices, or a Sort method) appears after the range statement in its
// enclosing block — the collect-then-sort idiom.
func sortFollows(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	// Find the statement list holding rs (possibly via a LabeledStmt).
	var in ast.Stmt = rs
	for i := len(stack) - 1; i >= 0; i-- {
		var stmts []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.LabeledStmt:
			in = b
			continue
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			return false
		}
		idx := -1
		for j, s := range stmts {
			if s == in {
				idx = j
				break
			}
		}
		if idx < 0 {
			return false
		}
		for _, s := range stmts[idx+1:] {
			if callsSort(pass, s) {
				return true
			}
		}
		return false
	}
	return false
}

// callsSort reports whether the statement (or anything inside it)
// calls into package sort or slices, or a method named Sort.
func callsSort(pass *Pass, s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" || fn.Name() == "Sort" {
			found = true
			return false
		}
		return true
	})
	return found
}
