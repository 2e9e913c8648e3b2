// Package registryuse is the policy-table fixture: policies are
// reached by name through the fleet policy tables, never constructed
// directly.
package registryuse

import "hercules/internal/fleet"

func viaTable() (fleet.Router, error) {
	return fleet.NewRouter(fleet.RoundRobin) // table lookup returns the interface: legal
}

func direct() fleet.Router {
	return fleet.StaticRouter{Fixed: 1} // want "Router implementation .* constructed directly"
}

func viaConcreteCtor() fleet.Router {
	return fleet.NewStatic(3) // want "call returns concrete Router implementation"
}

func allowedDirect() fleet.Router {
	//lint:allow registryuse fixture: a benchmark pins this router deliberately
	return fleet.StaticRouter{Fixed: 2}
}
