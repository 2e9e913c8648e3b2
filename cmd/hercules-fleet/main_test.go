package main

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"hercules/internal/fleet"
)

// TestFlagDefaultsMatchDefaultSpec is the drift guard for the CLI: a
// bare `hercules-fleet` run (no flags, no -spec) must build exactly
// fleet.DefaultSpec() — flag defaults are derived from it, never
// hand-copied, so a default changed in the library cannot silently
// diverge from the command line.
func TestFlagDefaultsMatchDefaultSpec(t *testing.T) {
	fs := flag.NewFlagSet("hercules-fleet", flag.ContinueOnError)
	cf := registerFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec, err := buildSpec(cf, fs)
	if err != nil {
		t.Fatal(err)
	}
	if want := fleet.DefaultSpec(); !reflect.DeepEqual(spec, want) {
		t.Errorf("bare CLI spec = %+v\nwant DefaultSpec  %+v", spec, want)
	}
	if got, want := spec.Options, fleet.DefaultOptions(); got != want {
		t.Errorf("bare CLI options = %+v, want DefaultOptions %+v", got, want)
	}
}

// TestSpecFileFlagsOverride: -spec loads the file, explicitly set
// flags win over it, unset flags defer to it.
func TestSpecFileFlagsOverride(t *testing.T) {
	spec := fleet.DefaultSpec()
	spec.Router = fleet.WeightedHetero
	spec.Options.MaxBatch = 8
	spec.Options.QueueCap = 7
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("hercules-fleet", flag.ContinueOnError)
	cf := registerFlags(fs)
	if err := fs.Parse([]string{"-spec", path, "-batch", "16"}); err != nil {
		t.Fatal(err)
	}
	got, err := buildSpec(cf, fs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Options.MaxBatch != 16 {
		t.Errorf("explicit -batch must override the spec file, got %d", got.Options.MaxBatch)
	}
	if got.Options.QueueCap != 7 || got.Router != fleet.WeightedHetero {
		t.Errorf("unset flags must defer to the spec file, got %+v", got)
	}
}

// TestRouterErrorListsRegistered: a bad -routers value must name every
// router, sourced from the router table.
func TestRouterErrorListsRegistered(t *testing.T) {
	_, err := parseRouters("rr,warp-drive")
	if err == nil {
		t.Fatal("unknown router accepted")
	}
	for _, name := range fleet.RouterNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q must list registered router %q", err, name)
		}
	}
}

// TestPprofAddressInUse: an unusable -pprof address must fail by name
// instead of being logged while the sweep runs on.
func TestPprofAddressInUse(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	ln, err := listenPprof(held.Addr().String())
	if err == nil {
		ln.Close()
		t.Fatal("a held address was accepted")
	}
	if !strings.HasPrefix(err.Error(), "pprof: ") {
		t.Errorf("error %q must name pprof", err)
	}
}

// TestCPUProfileUnwritablePath: a -cpuprofile file that cannot be
// created must fail by name before any profiling starts.
func TestCPUProfileUnwritablePath(t *testing.T) {
	stop, err := startCPUProfile(t.TempDir() + "/missing/cpu.prof")
	if err == nil {
		_ = stop()
		t.Fatal("an uncreatable profile path was accepted")
	}
	if !strings.HasPrefix(err.Error(), "cpuprofile: ") {
		t.Errorf("error %q must name cpuprofile", err)
	}
	// Nothing may be left profiling: a fresh capture must start.
	stop, err = startCPUProfile(t.TempDir() + "/cpu.prof")
	if err != nil {
		t.Fatalf("profiling after a failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("a second stop must repeat the first's nil error, got %v", err)
	}
}
