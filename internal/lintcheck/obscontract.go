package lintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObscontractAnalyzer enforces the Observer synchronous-delivery
// contract pinned by the PR 5/6 observer tests: ObserveInterval runs
// on the replay goroutine, so an implementation must not spawn
// goroutines, and must not retain the per-interval snapshot (or any
// reference-carrying field of it — IntervalStats holds per-model maps)
// past the callback by storing it into fields, globals or channels.
// Scalar fields (counts, tail milliseconds) may be folded anywhere:
// copying a float64 cannot alias engine state.
var ObscontractAnalyzer = &Analyzer{
	Name: "obscontract",
	Doc: "Observer.ObserveInterval bodies must not spawn goroutines, take the snapshot's " +
		"address, or store the snapshot (or a reference-carrying field) into fields, globals or channels",
	Run: runObscontract,
}

// fleetPkgPath is the package owning the Observer contract (the
// fixtures stub it under the same import path).
const fleetPkgPath = "hercules/internal/fleet"

// fleetPackage returns the fleet package visible to this pass: the
// package itself when analyzing fleet, otherwise the direct import.
func fleetPackage(pass *Pass) *types.Package {
	if pass.Pkg.Path() == fleetPkgPath {
		return pass.Pkg
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == fleetPkgPath {
			return imp
		}
	}
	return nil
}

// intervalStatsType resolves fleet.IntervalStats as seen by this pass.
func intervalStatsType(pass *Pass) types.Object {
	fleet := fleetPackage(pass)
	if fleet == nil {
		return nil
	}
	return fleet.Scope().Lookup("IntervalStats")
}

func runObscontract(pass *Pass) error {
	statsObj := intervalStatsType(pass)
	if statsObj == nil {
		return nil
	}
	for _, f := range pass.Files {
		// Declared methods: func (x T) ObserveInterval(ist IntervalStats).
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "ObserveInterval" || fd.Body == nil {
				continue
			}
			if param := observerParam(pass, statsObj, fd.Type); param != nil {
				checkObserverBody(pass, fd.Body, param)
			}
		}
		// ObserverFunc(func(ist IntervalStats) { ... }) adapters.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !isObserverFuncConversion(pass, call) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
			if !ok || lit.Body == nil {
				return true
			}
			if param := observerParam(pass, statsObj, lit.Type); param != nil {
				checkObserverBody(pass, lit.Body, param)
			}
			return true
		})
	}
	return nil
}

// observerParam returns the *types.Var of the single IntervalStats
// parameter, or nil when the signature does not match the Observer
// shape.
func observerParam(pass *Pass, statsObj types.Object, ft *ast.FuncType) *types.Var {
	if ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) != 1 {
		return nil
	}
	ident := ft.Params.List[0].Names[0]
	v, ok := pass.TypesInfo.Defs[ident].(*types.Var)
	if !ok {
		return nil
	}
	named := namedOrDeref(v.Type())
	if named == nil || named.Obj() != statsObj {
		return nil
	}
	return v
}

// isObserverFuncConversion reports whether the call converts its
// argument to fleet.ObserverFunc.
func isObserverFuncConversion(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	tn, ok := pass.TypesInfo.Uses[id].(*types.TypeName)
	if !ok || tn.Name() != "ObserverFunc" || tn.Pkg() == nil {
		return false
	}
	return tn.Pkg().Path() == fleetPkgPath
}

// checkObserverBody flags the contract violations inside one observer
// callback body.
func checkObserverBody(pass *Pass, body *ast.BlockStmt, param *types.Var) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(),
				"observer spawns a goroutine; ObserveInterval delivery is synchronous on the replay goroutine — buffer internally instead")
		case *ast.UnaryExpr:
			if x.Op == token.AND && mentionsParamRef(pass, x.X, param) {
				pass.Reportf(x.Pos(),
					"observer takes the address of the interval snapshot; the snapshot must not be retained past the callback")
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if !lhsIsLocal(pass, x.Lhs[i]) && mentionsParamRef(pass, x.Rhs[i], param) {
						pass.Reportf(x.Rhs[i].Pos(),
							"observer stores the interval snapshot (or a reference-carrying field) past the callback; copy the scalars you need instead")
					}
				}
			}
		case *ast.SendStmt:
			if mentionsParamRef(pass, x.Value, param) {
				pass.Reportf(x.Value.Pos(),
					"observer sends the interval snapshot to a channel; the snapshot (IntervalStats holds maps) must not escape the callback")
			}
		}
		return true
	})
}

// lhsIsLocal reports whether an assignment target is a plain local
// variable (or blank) — a store that dies with the callback. Field
// selectors, globals, indexes and dereferences are treated as escaping.
func lhsIsLocal(pass *Pass, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return v.Parent() != nil && v.Parent() != pass.Pkg.Scope()
}

// mentionsParamRef reports whether evaluating e can yield a value that
// aliases the snapshot param: the param itself, or a selector/index
// chain rooted at it whose type carries references. Calls are judged
// by their result type (a float64 derived from the snapshot is safe).
func mentionsParamRef(pass *Pass, e ast.Expr, param *types.Var) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		return pass.TypesInfo.Uses[x] == param && typeHasRefs(param.Type())
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
		if root := rootIdent(e); root != nil && pass.TypesInfo.Uses[root] == param {
			return typeHasRefs(pass.TypesInfo.TypeOf(e))
		}
	case *ast.CallExpr:
		if !typeHasRefs(pass.TypesInfo.TypeOf(x)) {
			return false
		}
		for _, arg := range x.Args {
			if mentionsParamRef(pass, arg, param) {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found || n == nil || n == e {
			return !found
		}
		if sub, ok := n.(ast.Expr); ok {
			if mentionsParamRef(pass, sub, param) {
				found = true
				return false
			}
			// Chains and calls were judged as a whole; do not descend
			// into their components again.
			switch n.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr, *ast.CallExpr:
				return false
			}
			_ = sub
		}
		return true
	})
	return found
}
