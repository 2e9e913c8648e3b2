package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The policy registries: routers, autoscalers and admission policies
// are constructed by name, so new policies drop in from anywhere —
// including other packages — without touching the engine. The built-in
// policies register themselves in this package's init functions; a
// custom policy registers once (typically from its own init) and is
// immediately selectable by every Spec, CLI flag and experiment driver:
//
//	fleet.RegisterRouter("sticky", func() fleet.Router { return &sticky{} })
//
// Registration is write-once: a duplicate name panics (two policies
// silently shadowing each other under one name is a configuration bug,
// not a recoverable condition), and lookups are safe for concurrent
// use (the parallel replay and t.Parallel tests resolve policies from
// many goroutines).
type registry[T any] struct {
	kind string // "router", "autoscaler", "admission" — for messages

	mu        sync.RWMutex
	factories map[string]func() T
}

// register installs a factory under a name. Empty names, nil factories
// and duplicate registrations panic: all three are programming errors
// at package-init time, never user input.
func (r *registry[T]) register(name string, factory func() T) {
	if strings.TrimSpace(name) == "" {
		panic(fmt.Sprintf("fleet: empty %s name", r.kind))
	}
	if factory == nil {
		panic(fmt.Sprintf("fleet: nil %s factory for %q", r.kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.factories == nil {
		r.factories = make(map[string]func() T)
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("fleet: %s %q registered twice", r.kind, name))
	}
	r.factories[name] = factory
}

// lookup resolves a registered factory; the error lists every
// registered name so CLI users see what they can ask for.
func (r *registry[T]) lookup(name string) (func() T, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.names(), ", "))
	}
	return f, nil
}

// names returns the registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for name := range r.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var (
	routers    = &registry[Router]{kind: "router"}
	scalers    = &registry[Scaler]{kind: "autoscaler"}
	admissions = &registry[Admission]{kind: "admission policy"}
	geos       = &registry[GeoPolicy]{kind: "geo policy"}
)

// RegisterRouter installs a routing-policy factory under a name,
// making it selectable by Spec.Router, hercules-fleet -routers and the
// experiment sweeps. The factory is invoked once per pool replay (a
// Router may keep per-pool mutable state). It panics on a duplicate
// name.
func RegisterRouter(name string, factory func() Router) { routers.register(name, factory) }

// NewRouter instantiates a registered router by name.
func NewRouter(name string) (Router, error) {
	f, err := routers.lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// RouterFactory resolves a registered router's factory by name.
func RouterFactory(name string) (func() Router, error) { return routers.lookup(name) }

// RouterNames returns every registered router name, sorted — the
// source of truth for CLI error messages and usage strings.
func RouterNames() []string { return routers.names() }

// RegisterScaler installs an autoscaler factory under a name, making
// it selectable by Spec.Scaler. It panics on a duplicate name.
func RegisterScaler(name string, factory func() Scaler) { scalers.register(name, factory) }

// NewScaler instantiates a registered autoscaler by name.
func NewScaler(name string) (Scaler, error) {
	f, err := scalers.lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// ScalerNames returns every registered autoscaler name, sorted.
func ScalerNames() []string { return scalers.names() }

// RegisterAdmission installs an admission-policy factory under a name,
// making it selectable by Spec.Admission. It panics on a duplicate
// name.
func RegisterAdmission(name string, factory func() Admission) { admissions.register(name, factory) }

// NewAdmission instantiates a registered admission policy by name.
func NewAdmission(name string) (Admission, error) {
	f, err := admissions.lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// AdmissionNames returns every registered admission-policy name,
// sorted.
func AdmissionNames() []string { return admissions.names() }

// RegisterGeoPolicy installs a geo-routing-policy factory under a
// name, making it selectable by Spec.Geo and hercules-fleet -geo. It
// panics on a duplicate name.
func RegisterGeoPolicy(name string, factory func() GeoPolicy) { geos.register(name, factory) }

// NewGeoPolicy instantiates a registered geo policy by name.
func NewGeoPolicy(name string) (GeoPolicy, error) {
	f, err := geos.lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// GeoPolicyNames returns every registered geo-policy name, sorted.
func GeoPolicyNames() []string { return geos.names() }
