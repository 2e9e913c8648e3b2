// Package fleet is the fixture stub of hercules/internal/fleet: just
// enough of the policy/observer surface for the registryuse
// and obscontract fixtures to type-check against the real import path.
package fleet

// The four policy axes.

type Router interface{ Pick(n int) int }

type Scaler interface{ Target(load float64) int }

type Admission interface{ Admit(load float64) bool }

type GeoPolicy interface{ Route(region string) string }

// IntervalStats mirrors the real snapshot's shape: scalars plus a
// reference-carrying per-model map.
type IntervalStats struct {
	Queries     int
	P99MS       float64
	CacheWarmth map[string]float64
}

// Observer receives the per-interval stream synchronously.
type Observer interface{ ObserveInterval(ist IntervalStats) }

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(ist IntervalStats)

// ObserveInterval implements Observer.
func (f ObserverFunc) ObserveInterval(ist IntervalStats) { f(ist) }

// RoundRobin names the built-in round-robin router.
const RoundRobin = "round-robin"

// StaticRouter always picks the same replica — a concrete policy the
// consumer fixtures try (illegally) to construct directly.
type StaticRouter struct{ Fixed int }

// Pick implements Router.
func (s StaticRouter) Pick(n int) int { return s.Fixed % n }

type rrRouter struct{ next int }

func (r *rrRouter) Pick(n int) int {
	r.next = (r.next + 1) % n
	return r.next
}

// NewRouter resolves a router by name.
func NewRouter(name string) (Router, error) { return &rrRouter{}, nil }

// NewStatic builds the concrete type directly — legal here (its own
// package), a policy-table bypass anywhere else.
func NewStatic(fixed int) StaticRouter { return StaticRouter{Fixed: fixed} }
