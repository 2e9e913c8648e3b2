package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// The policy tables: routers, autoscalers, admission and geo policies
// are constructed by name (Spec fields, CLI flags, experiment sweeps),
// and these four read-only tables are the closed set of names. Adding a
// policy means adding its type and one table entry in this package.
// Each factory returns a fresh policy, so a policy may keep per-replay
// mutable state.
var (
	routerTable = map[string]func() Router{
		RoundRobin:       func() Router { return &roundRobin{} },
		LeastOutstanding: func() Router { return leastOutstanding{} },
		PowerOfTwo:       func() Router { return powerOfTwo{} },
		WeightedHetero:   func() Router { return weightedHetero{} },
	}
	scalerTable = map[string]func() Scaler{
		"breach": func() Scaler { return NewAutoscaler() },
		"prop":   func() Scaler { return NewProportionalScaler() },
		"carbon": func() Scaler { return NewCarbonScaler() },
	}
	admissionTable = map[string]func() Admission{
		"deadline": func() Admission { return NewDeadlineAdmission() },
		"carbon":   func() Admission { return NewCarbonAdmission() },
	}
	geoTable = map[string]func() GeoPolicy{
		GeoLocal: func() GeoPolicy { return localGeo{} },
		GeoSpill: func() GeoPolicy { return spillGeo{} },
	}
)

// lookup resolves a factory by name; the error lists every name in the
// table so CLI users see what they can ask for.
func lookup[T any](table map[string]func() T, kind, name string) (func() T, error) {
	f, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown %s %q (registered: %s)",
			kind, name, strings.Join(names(table), ", "))
	}
	return f, nil
}

// names returns a table's names, sorted.
func names[T any](table map[string]func() T) []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// build instantiates a policy by name.
func build[T any](table map[string]func() T, kind, name string) (T, error) {
	f, err := lookup(table, kind, name)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(), nil
}

// NewRouter instantiates a router by name.
func NewRouter(name string) (Router, error) { return build(routerTable, "router", name) }

// RouterFactory resolves a router's factory by name. The factory is
// invoked once per pool replay (a Router may keep per-pool mutable
// state).
func RouterFactory(name string) (func() Router, error) {
	return lookup(routerTable, "router", name)
}

// RouterNames returns every router name, sorted — the source of truth
// for CLI error messages and usage strings.
func RouterNames() []string { return names(routerTable) }

// NewScaler instantiates an autoscaler by name.
func NewScaler(name string) (Scaler, error) { return build(scalerTable, "autoscaler", name) }

// ScalerNames returns every autoscaler name, sorted.
func ScalerNames() []string { return names(scalerTable) }

// NewAdmission instantiates an admission policy by name.
func NewAdmission(name string) (Admission, error) {
	return build(admissionTable, "admission policy", name)
}

// AdmissionNames returns every admission-policy name, sorted.
func AdmissionNames() []string { return names(admissionTable) }

// NewGeoPolicy instantiates a geo policy by name.
func NewGeoPolicy(name string) (GeoPolicy, error) { return build(geoTable, "geo policy", name) }

// GeoPolicyNames returns every geo-policy name, sorted.
func GeoPolicyNames() []string { return names(geoTable) }
