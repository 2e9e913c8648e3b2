package fleet

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type noopRouter struct{}

func (noopRouter) Name() string                                            { return "noop" }
func (noopRouter) Pick(insts []*Instance, now float64, rng *rand.Rand) int { return 0 }

// registerNoop registers the test router once per process, so the
// test repeats under -count or a -cpu list.
var registerNoop sync.Once

func TestRegistryRegisterAndLookup(t *testing.T) {
	registerNoop.Do(func() { RegisterRouter("registry-test-noop", func() Router { return noopRouter{} }) })
	r, err := NewRouter("registry-test-noop")
	if err != nil || r == nil {
		t.Fatalf("registered router not constructible: %v", err)
	}
	found := false
	for _, name := range RouterNames() {
		if name == "registry-test-noop" {
			found = true
		}
	}
	if !found {
		t.Error("RouterNames must include the new registration")
	}
	// A registered router is immediately parseable and usable by the
	// engine surface.
	if name, err := ParseRouter("registry-test-noop"); err != nil || name != "registry-test-noop" {
		t.Errorf("ParseRouter(new) = %q, %v", name, err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	RegisterRouter("registry-test-dup", func() Router { return noopRouter{} })
	RegisterRouter("registry-test-dup", func() Router { return noopRouter{} })
}

func TestRegistryUnknownNameErrorListsRegistered(t *testing.T) {
	_, err := NewRouter("no-such-router")
	if err == nil {
		t.Fatal("unknown router must error")
	}
	// The error is the CLI's help text: it must list what IS registered.
	for _, name := range AllRouters {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q must list registered router %q", err, name)
		}
	}
	if _, err := NewScaler("no-such-scaler"); err == nil ||
		!strings.Contains(err.Error(), "breach") || !strings.Contains(err.Error(), "prop") {
		t.Errorf("scaler error must list registrations, got %v", err)
	}
	if _, err := NewAdmission("no-such-admission"); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Errorf("admission error must list registrations, got %v", err)
	}
}

// concurrentRuns numbers TestRegistryConcurrentLookup's runs: each
// repetition registers a fresh name.
var concurrentRuns atomic.Int32

func TestRegistryConcurrentLookup(t *testing.T) {
	// Lookups race against a registration; the race CI job runs this
	// under -race, which is the real assertion.
	name := "registry-test-concurrent-" + strconv.Itoa(int(concurrentRuns.Add(1)))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 200; j++ {
				if _, err := NewRouter(PowerOfTwo); err != nil {
					t.Error(err)
					return
				}
				RouterNames()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		RegisterRouter(name, func() Router { return noopRouter{} })
	}()
	close(start)
	wg.Wait()
}

func TestBuiltinPoliciesRegistered(t *testing.T) {
	for _, name := range AllRouters {
		if _, err := NewRouter(name); err != nil {
			t.Errorf("built-in router %q not registered: %v", name, err)
		}
	}
	for _, name := range []string{"breach", "prop"} {
		s, err := NewScaler(name)
		if err != nil {
			t.Errorf("built-in scaler %q not registered: %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("scaler %q reports name %q", name, s.Name())
		}
	}
	a, err := NewAdmission("deadline")
	if err != nil || a.Name() != "deadline" {
		t.Errorf("deadline admission: %v (%v)", a, err)
	}
}
