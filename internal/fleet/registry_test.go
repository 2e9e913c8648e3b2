package fleet

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestRegistryUnknownNameErrorListsRegistered(t *testing.T) {
	_, err := NewRouter("x")
	if err == nil {
		t.Fatal("unknown router must error")
	}
	// The error is the CLI's help text: it must list every router, in
	// exactly this wording.
	if want := `fleet: unknown router "x" (registered: hetero, least, p2c, rr)`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if _, err := NewScaler("no-such-scaler"); err == nil ||
		!strings.Contains(err.Error(), "breach") || !strings.Contains(err.Error(), "prop") {
		t.Errorf("scaler error must list the table, got %v", err)
	}
	if _, err := NewAdmission("no-such-admission"); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Errorf("admission error must list the table, got %v", err)
	}
}

// TestBuiltinPoliciesRegistered walks the four policy tables: each
// name builds a policy reporting that name, and the name lists are
// exactly the closed set the engine ships.
func TestBuiltinPoliciesRegistered(t *testing.T) {
	type nameder interface{ Name() string }
	tables := []struct {
		kind  string
		names func() []string
		build func(string) (nameder, error)
		want  []string
	}{
		{"router", RouterNames, func(n string) (nameder, error) { return NewRouter(n) },
			[]string{"hetero", "least", "p2c", "rr"}},
		{"scaler", ScalerNames, func(n string) (nameder, error) { return NewScaler(n) },
			[]string{"breach", "carbon", "prop"}},
		{"admission", AdmissionNames, func(n string) (nameder, error) { return NewAdmission(n) },
			[]string{"carbon", "deadline"}},
		{"geo", GeoPolicyNames, func(n string) (nameder, error) { return NewGeoPolicy(n) },
			[]string{"local", "spill"}},
	}
	for _, tb := range tables {
		got := tb.names()
		if !reflect.DeepEqual(got, tb.want) {
			t.Errorf("%s names = %v, want %v", tb.kind, got, tb.want)
		}
		for _, name := range got {
			p, err := tb.build(name)
			if err != nil {
				t.Errorf("%s %q: %v", tb.kind, name, err)
				continue
			}
			if p.Name() != name {
				t.Errorf("%s %q reports name %q", tb.kind, name, p.Name())
			}
		}
	}
	all := append([]string(nil), AllRouters...)
	sort.Strings(all)
	if got := RouterNames(); !reflect.DeepEqual(got, all) {
		t.Errorf("AllRouters %v and RouterNames %v disagree", AllRouters, got)
	}
}
