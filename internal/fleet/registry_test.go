package fleet

import (
	"go/token"
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
	if _, err := scalerTable.build("no-such-scaler"); err == nil ||
		!strings.Contains(err.Error(), "breach") || !strings.Contains(err.Error(), "prop") {
		t.Errorf("scaler error must list the table, got %v", err)
	}
	if _, err := admissionTable.build("no-such-admission"); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Errorf("admission error must list the table, got %v", err)
	}
}

// nameder is what every policy axis has in common.
type nameder interface{ Name() string }

// policyAxes erases the four policy tables' types so a test can walk
// every table entry.
func policyAxes() []struct {
	kind  string
	names func() []string
	build func(string) (nameder, error)
	want  []string
} {
	return []struct {
		kind  string
		names func() []string
		build func(string) (nameder, error)
		want  []string
	}{
		{"router", RouterNames, func(n string) (nameder, error) { return routerTable.build(n) },
			[]string{"hetero", "least", "p2c", "rr"}},
		{"scaler", ScalerNames, func(n string) (nameder, error) { return scalerTable.build(n) },
			[]string{"breach", "carbon", "prop"}},
		{"admission", AdmissionNames, func(n string) (nameder, error) { return admissionTable.build(n) },
			[]string{"carbon", "deadline"}},
		{"geo", GeoPolicyNames, func(n string) (nameder, error) { return geoTable.build(n) },
			[]string{"local", "spill"}},
	}
}

// defaultPolicy builds a table entry's default policy as its concrete
// type, for tests that drive one implementation directly.
func defaultPolicy[C, T any](tb policyTable[T], name string) C {
	return any(tb.factories[name]()).(C)
}

// TestBuiltinPoliciesRegistered walks the four policy tables: each
// name builds a policy reporting that name, and the name lists are
// exactly the closed set the engine ships.
func TestBuiltinPoliciesRegistered(t *testing.T) {
	for _, tb := range policyAxes() {
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

// TestPolicyTypesUnexported keeps the policy sets closed at compile
// time: every table entry builds a type of this package that no other
// package can name, so the tables are the only way to construct one.
func TestPolicyTypesUnexported(t *testing.T) {
	pkg := reflect.TypeOf(Engine{}).PkgPath()
	for _, tb := range policyAxes() {
		for _, name := range tb.names() {
			p, err := tb.build(name)
			if err != nil {
				t.Fatalf("%s %q: %v", tb.kind, name, err)
			}
			typ := reflect.TypeOf(p)
			if typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
			if typ.PkgPath() != pkg || typ.Name() == "" || token.IsExported(typ.Name()) {
				t.Errorf("%s %q is %s.%s; want an unexported type of %s",
					tb.kind, name, typ.PkgPath(), typ.Name(), pkg)
			}
		}
	}
}
