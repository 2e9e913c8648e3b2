// Command hercules-fleet replays full days of request-level traffic
// against a provisioned heterogeneous fleet (internal/fleet) and emits
// a JSON report: for every router × provisioning-policy combination,
// per-interval p50/p95/p99 latency, SLA-violation minutes, queue
// drops, energy, and autoscaler activity.
//
// Usage:
//
//	hercules-fleet [-spec run.json] [-table table.json] [-models RMC1,RMC2]
//	               [-fleet small|cpu|default|accelerated]
//	               [-routers rr,least,p2c,hetero] [-policies greedy,hercules]
//	               [-scaler breach|prop|none] [-admission none|deadline]
//	               [-scenario name|@file.json|'[...]'] [-list-scenarios]
//	               [-grid duck|coal|hydro|@grid.json|'{...}']
//	               [-geo local|spill]
//	               [-trace arrivals.ndjson] [-record arrivals.ndjson]
//	               [-cache-hit 0.8] [-cache-latency 0.3] [-cache-fill 2000]
//	               [-cache-cold]
//	               [-days 1] [-step-min 60] [-peak 0] [-headroom 0.15]
//	               [-queue 32] [-slice 8] [-window 1] [-max-queries 150000]
//	               [-batch 1] [-batch-wait 2]
//	               [-seed 42] [-ndjson] [-summary] [-pretty]
//	               [-trace-out trace.ndjson] [-trace-chrome trace.json]
//	               [-trace-sample 1024]
//	               [-metrics-out metrics.json] [-pprof localhost:6060]
//	               [-cpuprofile cpu.prof]
//
// Every run is described by a fleet.Spec: -spec loads one from JSON,
// the other flags override individual fields (an unset flag defers to
// the spec file, which defers to fleet.DefaultSpec), and the emitted
// report embeds the resolved spec so a run can be reproduced with
// -spec alone. Policies are resolved by name through the fleet policy
// tables, whose names the flag usage strings and errors list.
//
// The -table JSON comes from hercules-profile (full Fig. 9b search).
// Without -table, each (model, server type) pair is quick-calibrated on
// the fly over a small serving-configuration ladder — seconds, not
// minutes — which is the recommended way to start.
//
// -scenario injects a non-stationary scenario (internal/scenario): a
// built-in name (flashcrowd, regionshift, failure, degrade, shed), a
// JSON spec file (@events.json), or an inline JSON event array. Every
// disruption run is paired with a baseline replay of the same router ×
// policy so the report shows the divergence directly.
//
// A spec file with a "regions" list replays multi-region
// (fleet.NewMultiEngine): every region runs its own fleet with its
// own diurnal phase, and the -geo policy (or the spec's "geo" field)
// moves load between them each interval — "local" keeps every region
// on its own traffic, "spill" routes overflow and blackout
// evacuations to remote regions with headroom, adding the
// inter-region RTT to every remotely served query's latency. The
// report's runs carry per-region results under "regions" next to the
// global aggregate; -ndjson lines and metrics names are labelled with
// the region. scenario "blackout" events (whole region offline,
// survivors spiked by the flash-crowd factor) need a multi-region
// spec. -record and -trace are single-region features and refuse a
// regions spec.
//
// -grid attaches a grid carbon-intensity timeline (internal/grid) to
// the replay: each interval's measured joules are priced at the grid's
// gCO2/kWh for that hour, the report carries total gCO2 and gCO2/query
// next to the energy numbers, and the carbon-aware policies (-scaler
// carbon, -admission carbon) read the timeline to shift headroom and
// deferrable-class work into the cleaner hours. scenario "powercap"
// events hold a server type to a total watt budget (derating it like a
// thermal throttle) whether or not a grid is attached. Without -grid
// (and no "grid" field in the spec) nothing changes: replays are
// byte-identical to a grid-less build.
//
// -record captures the run's arrival stream (every query plus each
// interval's offered-load metadata) as an NDJSON trace; -trace feeds a
// recorded file back in, replaying exactly those arrivals instead of
// synthesizing load — byte-identical to the recorded run under the
// same spec, which is how live traffic captured once gets replayed
// against candidate configurations. -cache-hit puts
// a warmth-tracking cache tier in front of routing: hits return at
// -cache-latency, misses route normally, and the fleet is provisioned
// against the miss load — scenario cache-flush events (cachestorm)
// then show the stampede cost of that leaner sizing.
//
// -ndjson streams every replayed interval as one JSON line on stdout
// while the day runs — the engine's Observer hook, the same stream the
// final report aggregates — and trims the per-interval series from the
// closing report.
//
// -trace-out / -trace-chrome enable the per-query tracer
// (internal/telemetry): lifecycle events for 1 in -trace-sample
// queries (default 1024 when a trace output is requested), exported as
// NDJSON and/or Chrome trace-event JSON (load the latter in Perfetto
// or chrome://tracing). Sampling is deterministic in the seed, so two
// runs of the same spec trace the same queries. When the sweep replays
// several router × policy runs, their traces append to the same file
// in execution order. -metrics-out writes a point-in-time snapshot of
// the telemetry metrics registry (counters, gauges, sketch-backed
// histograms) accumulated across the sweep. -pprof serves
// net/http/pprof on the given address for live CPU/heap profiling of
// long replays. -cpuprofile writes a CPU profile of the whole run —
// calibration included — to a file, for runs too short to attach to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/grid"
	"hercules/internal/hw"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/telemetry"
)

// ndjsonInterval is one -ndjson stream line: an interval's stats
// labeled with the run that produced them.
type ndjsonInterval struct {
	Router   string `json:"router"`
	Policy   string `json:"policy"`
	Scenario string `json:"scenario"`
	Region   string `json:"region,omitempty"`
	fleet.IntervalStats
}

type report struct {
	// Spec is the resolved base spec of the sweep (router/policy vary
	// per run); feed it back via -spec to reproduce the report.
	Spec     fleet.Spec        `json:"spec"`
	Routers  []string          `json:"routers"`
	Policies []string          `json:"policies"`
	ElapsedS float64           `json:"elapsed_s"`
	Runs     []fleet.DayResult `json:"runs"`
}

// cliFlags holds the flag destinations; defaults come from
// fleet.DefaultSpec() so the CLI can never drift from the library
// defaults (TestFlagDefaultsMatchDefaultSpec pins this).
type cliFlags struct {
	spec     *string
	table    *string
	routers  *string
	policies *string
	gridArg  *string
	listScen *bool
	record   *string
	ndjson   *bool
	summary  *bool
	pretty   *bool

	traceOut    *string
	traceChrome *string
	metricsOut  *string
	pprofAddr   *string
	cpuProfile  *string

	// overlays maps every spec-field flag to the function that copies
	// its parsed value into a spec; specFlag declares both at once.
	// -routers/-policies are the sweep axes, applied in main, and -grid
	// resolves in buildSpec because parsing it can fail.
	overlays map[string]func(*fleet.Spec)
}

// specFlag declares one spec-field flag: define registers it (a
// FlagSet's typed Var method), and set copies its parsed value into
// the spec field it overrides.
func specFlag[T any](overlays map[string]func(*fleet.Spec), define func(*T, string, T, string),
	name string, value T, usage string, set func(*fleet.Spec, T)) {
	p := new(T)
	define(p, name, value, usage)
	overlays[name] = func(s *fleet.Spec) { set(s, *p) }
}

// registerFlags wires the flag set; every default is read off
// fleet.DefaultSpec, and the policy flag usage strings list the
// names straight from the fleet policy tables.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	def := fleet.DefaultSpec()
	cf := &cliFlags{
		spec:  fs.String("spec", "", "run-spec JSON file (fleet.Spec); other flags override its fields"),
		table: fs.String("table", "", "efficiency-table JSON from hercules-profile (default: quick calibration)"),
		routers: fs.String("routers", strings.Join(fleet.AllRouters, ","),
			"routing policies to replay (registered: "+strings.Join(fleet.RouterNames(), ", ")+")"),
		policies: fs.String("policies", "greedy,hercules",
			"provisioning policies to replay ("+strings.Join(cluster.PolicyNames, ", ")+")"),
		gridArg: fs.String("grid", "",
			"grid carbon-intensity timeline: a preset ("+strings.Join(grid.Presets(), ", ")+"), @spec.json, or inline JSON (empty = no carbon accounting)"),
		listScen: fs.Bool("list-scenarios", false, "list the built-in scenarios and exit"),
		record: fs.String("record", "",
			"record the run's arrival trace as NDJSON to this file (- = stdout); forces -trace-sample 1 and a single router x policy run"),
		ndjson:  fs.Bool("ndjson", false, "stream per-interval stats as JSON lines while replaying"),
		summary: fs.Bool("summary", false, "omit per-interval series from the JSON"),
		pretty:  fs.Bool("pretty", false, "indent the JSON output"),

		traceOut:    fs.String("trace-out", "", "write sampled per-query trace as NDJSON to this file (- = stdout)"),
		traceChrome: fs.String("trace-chrome", "", "write sampled per-query trace as Chrome trace-event JSON (Perfetto)"),
		metricsOut:  fs.String("metrics-out", "", "write a JSON snapshot of the telemetry metrics registry (- = stdout)"),
		pprofAddr:   fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)"),
		cpuProfile:  fs.String("cpuprofile", "", "write a CPU profile of the run, calibration included, to this file"),

		overlays: make(map[string]func(*fleet.Spec)),
	}
	ov := cf.overlays
	specFlag(ov, fs.StringVar, "models", strings.Join(def.Models, ","), "workload models",
		func(s *fleet.Spec, v string) { s.Models = splitModels(v) })
	specFlag(ov, fs.StringVar, "fleet", def.Fleet, "fleet: "+strings.Join(hw.FleetNames, ", "),
		func(s *fleet.Spec, v string) { s.Fleet = v })
	specFlag(ov, fs.StringVar, "scaler", def.Scaler,
		"online autoscaler: none or a registered name ("+strings.Join(fleet.ScalerNames(), ", ")+")",
		func(s *fleet.Spec, v string) { s.Scaler = v })
	specFlag(ov, fs.StringVar, "admission", def.Admission,
		"admission shedding: none or a registered name ("+strings.Join(fleet.AdmissionNames(), ", ")+")",
		func(s *fleet.Spec, v string) { s.Admission = v })
	specFlag(ov, fs.StringVar, "geo", def.Geo,
		"geo-routing policy for a multi-region spec ("+strings.Join(fleet.GeoPolicyNames(), ", ")+"; empty = local)",
		func(s *fleet.Spec, v string) { s.Geo = v })
	specFlag(ov, fs.StringVar, "scenario", def.Scenario,
		"non-stationary scenario: a built-in name, @spec.json, or an inline JSON event array",
		func(s *fleet.Spec, v string) { s.Scenario = v })
	specFlag(ov, fs.StringVar, "trace", def.Trace,
		"replay recorded arrivals from this NDJSON trace instead of synthesizing load (see -record)",
		func(s *fleet.Spec, v string) { s.Trace = v })
	specFlag(ov, fs.Float64Var, "cache-hit", def.Cache.HitRate,
		"cache tier: asymptotic hit rate in [0,1) (0 = no cache tier)",
		func(s *fleet.Spec, v float64) { s.Cache.HitRate = v })
	specFlag(ov, fs.Float64Var, "cache-latency", def.Cache.LatencyMS,
		"cache tier: hit latency in milliseconds (0 = 0.3)",
		func(s *fleet.Spec, v float64) { s.Cache.LatencyMS = v })
	specFlag(ov, fs.Float64Var, "cache-fill", def.Cache.FillQueries,
		"cache tier: misses to refill an empty cache to ~63% warmth (0 = 2000)",
		func(s *fleet.Spec, v float64) { s.Cache.FillQueries = v })
	specFlag(ov, fs.BoolVar, "cache-cold", def.Cache.ColdStart,
		"cache tier: start the day with cold caches (warmth 0) instead of warm",
		func(s *fleet.Spec, v bool) { s.Cache.ColdStart = v })
	specFlag(ov, fs.IntVar, "days", def.Days, "days of diurnal load",
		func(s *fleet.Spec, v int) { s.Days = v })
	specFlag(ov, fs.Float64Var, "step-min", def.StepMin, "trace interval in minutes (>= 24 intervals per day at 60)",
		func(s *fleet.Spec, v float64) { s.StepMin = v })
	specFlag(ov, fs.Float64Var, "peak", def.PeakQPS, "per-workload peak QPS (0 = auto-size to fleet)",
		func(s *fleet.Spec, v float64) { s.PeakQPS = v })
	specFlag(ov, fs.Float64Var, "headroom", def.HeadroomR, "provisioning over-provision rate R",
		func(s *fleet.Spec, v float64) { s.HeadroomR = v })
	specFlag(ov, fs.IntVar, "queue", def.Options.QueueCap, "per-server bounded queue slots",
		func(s *fleet.Spec, v int) { s.Options.QueueCap = v })
	specFlag(ov, fs.Float64Var, "slice", def.Options.SliceS, "sampled traffic slice per interval (seconds)",
		func(s *fleet.Spec, v float64) { s.Options.SliceS = v })
	specFlag(ov, fs.Float64Var, "window", def.Options.WindowS, "tail observation window (seconds)",
		func(s *fleet.Spec, v float64) { s.Options.WindowS = v })
	specFlag(ov, fs.IntVar, "max-queries", def.Options.MaxQueriesPerInterval, "replayed-query budget per interval",
		func(s *fleet.Spec, v int) { s.Options.MaxQueriesPerInterval = v })
	specFlag(ov, fs.IntVar, "batch", def.Options.MaxBatch, "dynamic batching: max queries coalesced per dispatch (1 = off)",
		func(s *fleet.Spec, v int) { s.Options.MaxBatch = v })
	specFlag(ov, fs.Float64Var, "batch-wait", def.Options.BatchWaitS*1e3, "max batch-formation wait in milliseconds",
		func(s *fleet.Spec, v float64) { s.Options.BatchWaitS = v / 1e3 })
	specFlag(ov, fs.Int64Var, "seed", def.Options.Seed, "deterministic seed",
		func(s *fleet.Spec, v int64) { s.Options.Seed = v })
	specFlag(ov, fs.IntVar, "trace-sample", def.Options.TraceSample,
		"trace 1 in N queries (0 = off; defaults to 1024 when a trace output is set)",
		func(s *fleet.Spec, v int) { s.Options.TraceSample = v })
	return cf
}

// buildSpec resolves the run's base spec: the -spec file (or
// DefaultSpec) overlaid with every flag the user explicitly set. Flag
// defaults are themselves DefaultSpec values, so an unset flag would
// overlay nothing new.
func buildSpec(cf *cliFlags, fs *flag.FlagSet) (fleet.Spec, error) {
	spec := fleet.DefaultSpec()
	if *cf.spec != "" {
		data, err := os.ReadFile(*cf.spec)
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", *cf.spec, err)
		}
	}
	// An explicit -grid wins over a spec file's grid, and -grid ""
	// clears it (grid.Parse of "" is the zero spec).
	if flagWasSet(fs, "grid") {
		g, err := grid.Parse(*cf.gridArg)
		if err != nil {
			return spec, err
		}
		spec.Grid = g
	}
	fs.Visit(func(f *flag.Flag) {
		if apply, ok := cf.overlays[f.Name]; ok {
			apply(&spec)
		}
	})
	return spec, nil
}

// flagWasSet reports whether the user set the named flag explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// flushOnExit collects buffered writers that must be flushed before
// the process exits, on the success path and in fatal().
var flushOnExit []*bufio.Writer

// stopProfile ends a -cpuprofile capture. The success path checks its
// error; flushAll calls it too, so fatal() exits leave a complete
// profile as well.
var stopProfile = func() error { return nil }

func flushAll() {
	_ = stopProfile() // fatal() is already reporting an error; a second would bury it
	for _, w := range flushOnExit {
		w.Flush()
	}
}

// nopCloser shields os.Stdout from the trace sinks' Close (which
// closes io.Closer destinations — wanted for files, not for stdout).
type nopCloser struct{ io.Writer }

// openOut opens a trace/metrics destination: "-" is stdout (never
// closed), anything else a created file.
func openOut(path string) (io.Writer, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

func main() {
	cf := registerFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "Usage: hercules-fleet [flags]")
		fmt.Fprintln(os.Stderr, "Replays diurnal days of request-level traffic for every router x policy combination.")
		fmt.Fprintln(os.Stderr, "Runs are described by a fleet.Spec (-spec run.json); flags override its fields.")
		fmt.Fprintln(os.Stderr, "Without -table, serving configurations are quick-calibrated on the fly (seconds);")
		fmt.Fprintln(os.Stderr, "pass a hercules-profile table for the full Fig. 9b search results.")
		fmt.Fprintln(os.Stderr, "\nFlags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cf.listScen {
		for _, name := range scenario.Names() {
			sc, _ := scenario.Named(name)
			fmt.Print(sc.Summary())
		}
		return
	}

	spec, err := buildSpec(cf, flag.CommandLine)
	if err != nil {
		fatal(err)
	}
	// The sweep axes: -routers/-policies flags, except that a spec
	// file's single router/policy wins when the flag is not set — so
	// feeding a report's embedded spec back reproduces exactly its run.
	routersArg, policiesArg := *cf.routers, *cf.policies
	if *cf.spec != "" && !flagWasSet(flag.CommandLine, "routers") {
		routersArg = spec.Router
	}
	if *cf.spec != "" && !flagWasSet(flag.CommandLine, "policies") {
		policiesArg = spec.Policy
	}
	routers, err := parseRouters(routersArg)
	if err != nil {
		fatal(err)
	}
	policies, err := parsePolicies(policiesArg)
	if err != nil {
		fatal(err)
	}
	scen, err := scenario.Parse(spec.Scenario)
	if err != nil {
		fatal(err)
	}
	// A multi-region spec replays through NewMultiEngine; the features
	// that are inherently single-region fail fast here with a message
	// naming the conflict rather than deep in the engine.
	multiRegion := len(spec.Regions) > 1
	if multiRegion {
		if *cf.record != "" {
			fatal(fmt.Errorf("-record captures a single region's arrivals; drop the regions or record per region"))
		}
		if spec.Trace != "" {
			fatal(fmt.Errorf("recorded traces replay single-region; drop the regions or the trace"))
		}
	}
	// A recorded trace replaces workload synthesis; its models drive
	// the run (and the calibration below) unless -models pins them.
	var traceSrc *fleet.TraceSource
	if spec.Trace != "" {
		traceSrc, err = fleet.LoadTrace(spec.Trace)
		if err != nil {
			fatal(err)
		}
		if !flagWasSet(flag.CommandLine, "models") {
			spec.Models = traceSrc.Models()
		}
		fmt.Fprintf(os.Stderr, "replaying %s: %d interval(s), models %s\n",
			spec.Trace, traceSrc.Steps(), strings.Join(traceSrc.Models(), ","))
	}
	if *cf.pprofAddr != "" {
		// Bind before calibrating or replaying anything: an unusable
		// address fails the run here, by name.
		ln, lerr := listenPprof(*cf.pprofAddr)
		if lerr != nil {
			fatal(lerr)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
		// Serves until the process exits; Serve returns only if the
		// bound listener fails, which costs the run nothing.
		go http.Serve(ln, nil)
	}
	if *cf.cpuProfile != "" {
		// Start before calibrating: the offline stage is often most of
		// a run's CPU time.
		stop, perr := startCPUProfile(*cf.cpuProfile)
		if perr != nil {
			fatal(perr)
		}
		stopProfile = stop
	}
	table, err := loadOrCalibrateTable(*cf.table, spec)
	if err != nil {
		fatal(err)
	}

	// Trace sinks are opened once and shared by every run in the sweep;
	// a requested trace output turns sampling on at 1/1024 if the user
	// did not pick a rate.
	var traceSinks []telemetry.Sink
	if *cf.traceOut != "" {
		w, err := openOut(*cf.traceOut)
		if err != nil {
			fatal(err)
		}
		traceSinks = append(traceSinks, telemetry.NewNDJSONWriter(w))
	}
	if *cf.traceChrome != "" {
		w, err := openOut(*cf.traceChrome)
		if err != nil {
			fatal(err)
		}
		traceSinks = append(traceSinks, telemetry.NewChromeWriter(w, spec.Options.SliceS))
	}
	if *cf.record != "" {
		if len(routers) > 1 || len(policies) > 1 {
			fatal(fmt.Errorf("-record captures one run's arrivals; pick a single -routers and -policies value"))
		}
		w, err := openOut(*cf.record)
		if err != nil {
			fatal(err)
		}
		// Arrival capture must see every query, and the file carries only
		// the arrival + offer events the -trace replay path re-ingests.
		traceSinks = append(traceSinks,
			telemetry.NewNDJSONWriter(w).Restrict(telemetry.KindArrival, telemetry.KindOffer))
		spec.Options.TraceSample = 1
	}
	if len(traceSinks) > 0 && spec.Options.TraceSample == 0 {
		spec.Options.TraceSample = 1024
	}
	var metricsReg *telemetry.Registry
	if *cf.metricsOut != "" {
		metricsReg = telemetry.NewRegistry()
	}

	rep := report{Spec: spec, Routers: routers, Policies: policies}
	// A disruption run is always paired with a baseline replay of the
	// same router × policy so the report carries the divergence.
	runScens := []string{spec.Scenario}
	if scen.Active() {
		fmt.Fprint(os.Stderr, scen.Summary())
		// Pair the disruption with a baseline replay — unless recording,
		// where the file must carry exactly one run's arrivals.
		if *cf.record == "" {
			runScens = []string{"baseline", spec.Scenario}
		}
	}
	// The -ndjson stream goes through one buffered writer for the whole
	// sweep: per-interval lines are small and frequent, and an
	// unbuffered stdout pays a syscall per interval. The buffer is
	// flushed after the sweep and on every fatal() exit.
	ndjsonBuf := bufio.NewWriterSize(os.Stdout, 1<<16)
	flushOnExit = append(flushOnExit, ndjsonBuf)
	ndjsonEnc := json.NewEncoder(ndjsonBuf)
	start := time.Now()
	for _, pol := range policies {
		for _, router := range routers {
			for _, sc := range runScens {
				run := spec
				run.Policy = pol
				run.Router = router
				run.Scenario = sc
				engOpts := []fleet.Option{fleet.WithTable(table)}
				if traceSrc != nil {
					// Share the loaded trace across the sweep instead of
					// re-reading the file per run.
					engOpts = append(engOpts, fleet.WithTraceSource(traceSrc))
				}
				// The stream label is the run's resolved scenario name, not
				// the raw argument (which may be @file.json or inline JSON)
				// — and not the region engines' own scenario, which is
				// always baseline (multi-region timelines come from
				// CompileRegions, not the per-region spec).
				runScen, err := scenario.Parse(run.Scenario)
				if err != nil {
					fatal(err)
				}
				// decorate attaches the per-run sinks to one engine; the
				// multi-region path applies it per region with the region's
				// name, the single path once with no label.
				decorate := func(eng *fleet.Engine, region string) {
					if eng.Tracer != nil {
						for _, s := range traceSinks {
							eng.Tracer.AddSink(s)
						}
					}
					if metricsReg != nil {
						eng.Observers = append(eng.Observers, fleet.NewRegionMetricsObserver(metricsReg, region))
					}
					if *cf.ndjson {
						// Each line carries its run's identity — the sweep
						// multiplexes every run onto one stream. The line is
						// built per callback so the observer retains nothing
						// across intervals.
						scen := runScen.Name
						eng.Observers = append(eng.Observers, fleet.ObserverFunc(func(ist fleet.IntervalStats) {
							ndjsonEnc.Encode(ndjsonInterval{
								Router: router, Policy: pol, Scenario: scen, Region: region,
								IntervalStats: ist,
							})
						}))
					}
				}
				var day fleet.DayResult
				if multiRegion {
					me, err := fleet.NewMultiEngine(run, engOpts...)
					if err != nil {
						fatal(err)
					}
					for i, eng := range me.Engines {
						decorate(eng, me.Spec.Regions[i].Name)
					}
					if day, err = me.RunDay(me.Workloads()); err != nil {
						fatal(err)
					}
				} else {
					eng, err := fleet.NewEngine(run, engOpts...)
					if err != nil {
						fatal(err)
					}
					decorate(eng, "")
					if day, err = eng.RunDay(eng.Workloads()); err != nil {
						fatal(err)
					}
				}
				if *cf.summary || *cf.ndjson {
					day.Steps = nil
					for i := range day.Regions {
						day.Regions[i].Steps = nil
					}
				}
				rep.Runs = append(rep.Runs, day)
				fmt.Fprintf(os.Stderr, "%s/%s [%s]: %.1f violation min, %.2f%% drops, %.1f MJ\n",
					pol, router, day.Scenario, day.SLAViolationMin, day.DropFrac*100, day.EnergyKJ/1e3)
			}
		}
	}
	rep.ElapsedS = time.Since(start).Seconds()

	if err := stopProfile(); err != nil {
		fatal(err)
	}
	// Terminate the trace documents and drain every buffered stream
	// before the report goes to (possibly the same) stdout.
	for _, s := range traceSinks {
		if err := s.Close(); err != nil {
			fatal(err)
		}
	}
	if metricsReg != nil {
		if err := writeMetrics(*cf.metricsOut, metricsReg); err != nil {
			fatal(err)
		}
	}
	flushAll()

	enc := json.NewEncoder(os.Stdout)
	if *cf.pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// writeMetrics dumps the registry snapshot accumulated across the
// sweep as indented JSON.
func writeMetrics(path string, reg *telemetry.Registry) error {
	w, err := openOut(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reg.Snapshot()); err != nil {
		return err
	}
	if c, ok := w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func splitModels(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if !strings.HasPrefix(name, "DLRM-") && strings.HasPrefix(name, "RMC") {
			name = "DLRM-" + name
		}
		out = append(out, name)
	}
	return out
}

// parseRouters validates each router name against the router table;
// an unknown name fails with the known names listed.
func parseRouters(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		name, err := fleet.ParseRouter(part)
		if err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

func parsePolicies(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		pol, err := cluster.ParsePolicy(part)
		if err != nil {
			return nil, err
		}
		out = append(out, pol.String())
	}
	return out, nil
}

// loadOrCalibrateTable reads the -table file, or without one
// quick-calibrates the spec's pairs (fleet.CalibrateSpec).
func loadOrCalibrateTable(path string, spec fleet.Spec) (*profiler.Table, error) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "no -table given; calibrating serving configurations (seconds)...")
		return fleet.CalibrateSpec(spec)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []profiler.Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, err
	}
	return profiler.FromEntries(profiler.Hercules, entries), nil
}

// listenPprof binds the -pprof address.
func listenPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	return ln, nil
}

// startCPUProfile creates the -cpuprofile file and starts profiling
// into it. The returned stop may be called more than once; every call
// reports the first call's error.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return sync.OnceValue(func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}), nil
}

func fatal(err error) {
	flushAll()
	fmt.Fprintln(os.Stderr, "hercules-fleet:", err)
	os.Exit(1)
}
