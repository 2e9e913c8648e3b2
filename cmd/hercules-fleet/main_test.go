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
// fleet.DefaultSpec(), and every spec-field flag's default, overlaid,
// must leave it unchanged — flag defaults are derived from it, never
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
	want := fleet.DefaultSpec()
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("bare CLI spec = %+v\nwant DefaultSpec  %+v", spec, want)
	}
	if got, want := spec.Options, fleet.DefaultOptions(); got != want {
		t.Errorf("bare CLI options = %+v, want DefaultOptions %+v", got, want)
	}
	for name, apply := range cf.overlays {
		got := fleet.DefaultSpec()
		apply(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s default overlays DefaultSpec to %+v", name, got)
		}
	}
}

// specFlagRows sets every spec-field flag over a spec file to a value
// the file does not hold, with the one field change that must follow.
var specFlagRows = []struct {
	flag, value string
	set         func(*fleet.Spec)
}{
	{"models", "RMC3", func(s *fleet.Spec) { s.Models = []string{"DLRM-RMC3"} }},
	{"fleet", "cpu", func(s *fleet.Spec) { s.Fleet = "cpu" }},
	{"scaler", "prop", func(s *fleet.Spec) { s.Scaler = "prop" }},
	{"admission", "deadline", func(s *fleet.Spec) { s.Admission = "deadline" }},
	{"geo", "spill", func(s *fleet.Spec) { s.Geo = "spill" }},
	{"scenario", "flashcrowd", func(s *fleet.Spec) { s.Scenario = "flashcrowd" }},
	{"trace", "day.ndjson", func(s *fleet.Spec) { s.Trace = "day.ndjson" }},
	{"cache-hit", "0.5", func(s *fleet.Spec) { s.Cache.HitRate = 0.5 }},
	{"cache-latency", "0.7", func(s *fleet.Spec) { s.Cache.LatencyMS = 0.7 }},
	{"cache-fill", "500", func(s *fleet.Spec) { s.Cache.FillQueries = 500 }},
	{"cache-cold", "true", func(s *fleet.Spec) { s.Cache.ColdStart = true }},
	{"days", "3", func(s *fleet.Spec) { s.Days = 3 }},
	{"step-min", "15", func(s *fleet.Spec) { s.StepMin = 15 }},
	{"peak", "900", func(s *fleet.Spec) { s.PeakQPS = 900 }},
	{"headroom", "0.3", func(s *fleet.Spec) { s.HeadroomR = 0.3 }},
	{"queue", "9", func(s *fleet.Spec) { s.Options.QueueCap = 9 }},
	{"slice", "4", func(s *fleet.Spec) { s.Options.SliceS = 4 }},
	{"window", "0.5", func(s *fleet.Spec) { s.Options.WindowS = 0.5 }},
	{"max-queries", "1234", func(s *fleet.Spec) { s.Options.MaxQueriesPerInterval = 1234 }},
	{"batch", "16", func(s *fleet.Spec) { s.Options.MaxBatch = 16 }},
	{"batch-wait", "5", func(s *fleet.Spec) { s.Options.BatchWaitS = 0.005 }},
	{"seed", "7", func(s *fleet.Spec) { s.Options.Seed = 7 }},
	{"trace-sample", "64", func(s *fleet.Spec) { s.Options.TraceSample = 64 }},
}

// nonSpecFlags are the flags that override no spec field through an
// overlay: the sweep axes, -grid (parsed separately), inputs and
// outputs.
var nonSpecFlags = []string{
	"spec", "table", "routers", "policies", "grid", "list-scenarios", "record",
	"ndjson", "summary", "pretty", "trace-out", "trace-chrome", "metrics-out",
	"pprof", "cpuprofile",
}

// TestSpecFileFlagsOverride: -spec loads the file, and each explicitly
// set spec-field flag changes exactly its own field over it — every
// other field defers to the file. The rows must be exactly the
// registered spec flags, and every flag must be either a spec flag or
// a listed non-spec one, so a flag registered without an overlay or
// an overlay without a row fails here.
func TestSpecFileFlagsOverride(t *testing.T) {
	file := fleet.DefaultSpec()
	file.Router = fleet.WeightedHetero
	file.Options.MaxBatch = 8
	file.Options.QueueCap = 7
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("hercules-fleet", flag.ContinueOnError)
	cf := registerFlags(fs)
	rows := make(map[string]bool, len(specFlagRows))
	for _, row := range specFlagRows {
		rows[row.flag] = true
		if cf.overlays[row.flag] == nil {
			t.Errorf("row -%s is not a registered spec flag", row.flag)
		}
	}
	for name := range cf.overlays {
		if !rows[name] {
			t.Errorf("spec flag -%s has no row", name)
		}
	}
	nonSpec := make(map[string]bool, len(nonSpecFlags))
	for _, name := range nonSpecFlags {
		nonSpec[name] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if _, spec := cf.overlays[f.Name]; spec == nonSpec[f.Name] {
			t.Errorf("-%s must be exactly one of a spec flag (with an overlay) or a listed non-spec flag", f.Name)
		}
	})

	for _, row := range specFlagRows {
		fs := flag.NewFlagSet("hercules-fleet", flag.ContinueOnError)
		cf := registerFlags(fs)
		if err := fs.Parse([]string{"-spec", path, "-" + row.flag, row.value}); err != nil {
			t.Fatal(err)
		}
		got, err := buildSpec(cf, fs)
		if err != nil {
			t.Fatal(err)
		}
		want := file
		row.set(&want)
		if reflect.DeepEqual(want, file) {
			t.Errorf("row -%s %s: the spec file already holds the value", row.flag, row.value)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s %s over the spec file built %+v\nwant %+v", row.flag, row.value, got, want)
		}
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
