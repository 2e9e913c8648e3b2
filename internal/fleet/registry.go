package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// The policy tables: routers, autoscalers, admission and geo policies
// are constructed by name (Spec fields, CLI flags, experiment sweeps),
// and these four read-only tables are the closed set of names. Every
// implementation is unexported, so no code outside this package can
// build one but through a table. Adding a policy means adding its type
// and one table entry here. Each factory returns a fresh policy with
// its default tuning, so a policy may keep per-replay mutable state.
var (
	routerTable = policyTable[Router]{"router", map[string]func() Router{
		RoundRobin:       func() Router { return &roundRobin{} },
		LeastOutstanding: func() Router { return leastOutstanding{} },
		PowerOfTwo:       func() Router { return powerOfTwo{} },
		WeightedHetero:   func() Router { return weightedHetero{} },
	}}
	scalerTable = policyTable[Scaler]{"autoscaler", map[string]func() Scaler{
		"breach": func() Scaler {
			return &breachScaler{Patience: 2, BoostR: 0.25, HoldIntervals: 4}
		},
		"prop": func() Scaler {
			return &proportionalScaler{TargetUtil: 0.70, Gain: 1.0, MaxBoostR: 0.5, Hysteresis: 0.05}
		},
		"carbon": func() Scaler {
			return &carbonScaler{
				CleanFrac: 0.85, DirtyFrac: 1.10,
				BoostR: 0.25, LeanR: 0.10,
				Patience: 2, HoldIntervals: 4,
			}
		},
	}}
	admissionTable = policyTable[Admission]{"admission policy", map[string]func() Admission{
		"deadline": func() Admission { return &deadlineAdmission{Gain: 0.5, MaxShed: 0.5} },
		"carbon":   func() Admission { return &carbonAdmission{RampFrac: 0.30, Gain: 0.5} },
	}}
	geoTable = policyTable[GeoPolicy]{"geo policy", map[string]func() GeoPolicy{
		GeoLocal: func() GeoPolicy { return localGeo{} },
		GeoSpill: func() GeoPolicy { return spillGeo{} },
	}}
)

// policyTable is one policy axis: its kind (for error messages) and
// its name → factory map.
type policyTable[T any] struct {
	kind      string
	factories map[string]func() T
}

// lookup resolves a factory by name; the error lists every name in the
// table so CLI users see what they can ask for.
func (tb policyTable[T]) lookup(name string) (func() T, error) {
	f, ok := tb.factories[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown %s %q (registered: %s)",
			tb.kind, name, strings.Join(tb.names(), ", "))
	}
	return f, nil
}

// names returns the table's names, sorted.
func (tb policyTable[T]) names() []string {
	out := make([]string, 0, len(tb.factories))
	for name := range tb.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// build instantiates a policy by name.
func (tb policyTable[T]) build(name string) (T, error) {
	f, err := tb.lookup(name)
	if err != nil {
		var zero T
		return zero, err
	}
	return f(), nil
}

// NewRouter instantiates a router by name.
func NewRouter(name string) (Router, error) { return routerTable.build(name) }

// RouterNames returns every router name, sorted — the source of truth
// for CLI error messages and usage strings.
func RouterNames() []string { return routerTable.names() }

// ScalerNames returns every autoscaler name, sorted.
func ScalerNames() []string { return scalerTable.names() }

// AdmissionNames returns every admission-policy name, sorted.
func AdmissionNames() []string { return admissionTable.names() }

// GeoPolicyNames returns every geo-policy name, sorted.
func GeoPolicyNames() []string { return geoTable.names() }
