package lintcheck

import (
	"go/ast"
	"go/types"
)

// RegistryuseAnalyzer enforces the policy-table contract: Router,
// Scaler, Admission and GeoPolicy implementations are reached through
// the fleet package's name tables (fleet.NewRouter and its siblings,
// or a Spec), never instantiated directly outside the package that
// defines them (tests are exempt; the loader skips test files).
var RegistryuseAnalyzer = &Analyzer{
	Name: "registryuse",
	Doc: "policy implementations must be resolved by name through the fleet policy tables, " +
		"not constructed directly outside their own package",
	Run: runRegistryuse,
}

// fleetPkgPath is the package owning the policy interfaces and the
// policy tables (the analysistest fixtures stub it under the same import
// path).
const fleetPkgPath = "hercules/internal/fleet"

// policyInterfaceNames are the four policy axes.
var policyInterfaceNames = []string{"Router", "Scaler", "Admission", "GeoPolicy"}

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

// policyInterfaces resolves the four policy interface types from the
// fleet package scope.
func policyInterfaces(fleet *types.Package) map[string]*types.Interface {
	out := make(map[string]*types.Interface, len(policyInterfaceNames))
	for _, name := range policyInterfaceNames {
		tn, ok := fleet.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			out[name] = iface
		}
	}
	return out
}

func runRegistryuse(pass *Pass) error {
	fleet := fleetPackage(pass)
	if fleet == nil {
		return nil // package neither is nor uses fleet: nothing to check
	}
	ifaces := policyInterfaces(fleet)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if pass.Pkg == fleet {
					return true // a package may build its own policies
				}
				if axis, typ := policyType(pass, ifaces, pass.TypesInfo.TypeOf(x)); axis != "" {
					pass.Reportf(x.Pos(),
						"%s implementation %s constructed directly outside %s; resolve it by name (fleet.New%s / Spec)",
						axis, typ, typ.Obj().Pkg().Path(), axis)
				}
			case *ast.CallExpr:
				if pass.Pkg == fleet {
					return true
				}
				if _, isLit := ast.Unparen(x.Fun).(*ast.FuncLit); isLit {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
					return true // conversions handled via their operand
				}
				if axis, typ := policyType(pass, ifaces, singleResult(pass, x)); axis != "" {
					pass.Reportf(x.Pos(),
						"call returns concrete %s implementation %s outside %s; resolve it by name (fleet.New%s / Spec)",
						axis, typ, typ.Obj().Pkg().Path(), axis)
				}
			}
			return true
		})
	}
	return nil
}

// singleResult returns the call's sole result type, or nil.
func singleResult(pass *Pass, call *ast.CallExpr) types.Type {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return nil
	}
	if _, isTuple := t.(*types.Tuple); isTuple {
		return nil
	}
	return t
}

// policyType reports which policy axis (if any) the concrete named
// type t implements, when t is defined outside the current package.
func policyType(pass *Pass, ifaces map[string]*types.Interface, t types.Type) (string, *types.Named) {
	named := namedOrDeref(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg() == pass.Pkg {
		return "", nil
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return "", nil // table lookups return interfaces: fine
	}
	for _, axis := range policyInterfaceNames {
		iface := ifaces[axis]
		if iface == nil {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return axis, named
		}
	}
	return "", nil
}
