package fleet

import (
	"fmt"
	"math"

	"hercules/internal/cluster"
	"hercules/internal/grid"
	"hercules/internal/hw"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// Spec is the one JSON-serializable description of a fleet replay run:
// the named fleet, the workload models, every policy by name, the
// scenario, the trace geometry and the engine tuning. CLIs, experiment
// drivers and examples all construct engines (NewEngine,
// NewMultiEngine) from a Spec, CalibrateSpec derives the serving table
// from the same Spec, and an Engine reads its configuration from its
// Spec alone, so a run can be saved, diffed, and replayed from a
// single JSON document — `hercules-fleet -spec run.json` — instead of
// a per-caller pile of options plumbing.
//
// Zero values defer to DefaultSpec: an empty Fleet means "small", an
// empty Router "p2c", and an all-zero Options means DefaultOptions().
// The explicit string "none" disables the autoscaler or admission
// policy (an empty string selects the default).
type Spec struct {
	// SpecVersion versions the document shape: 0 (absent) or 1 is the
	// legacy single-fleet form, 2 adds Regions and Geo. Normalize
	// upgrades legacy specs in place and stamps SpecVersionCurrent; a
	// version newer than this build supports is an error, never a
	// silent misread.
	SpecVersion int `json:"spec_version,omitempty"`
	// Fleet names the cluster (hw.NamedFleet): small, cpu, default or
	// accelerated. WithFleet overrides it for unnamed fleets. In a
	// multi-region spec it is the default fleet of regions that name
	// none.
	Fleet string `json:"fleet,omitempty"`
	// Regions lists the regional fleets of a multi-region replay
	// (NewMultiEngine). Empty means the legacy single-fleet run —
	// Normalize canonicalizes it to one implicit region named "local".
	Regions []RegionSpec `json:"regions,omitempty"`
	// Geo names the geo-routing policy (GeoPolicyNames)
	// that moves load between regions each interval; empty defaults to
	// "local" (no cross-region routing).
	Geo string `json:"geo,omitempty"`
	// Models are the workload models replayed against the fleet.
	Models []string `json:"models,omitempty"`
	// Router, Policy, Scaler and Admission select policies by name
	// from the fixed policy tables (RouterNames, cluster.PolicyNames,
	// ScalerNames, AdmissionNames).
	Router    string `json:"router,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Scaler    string `json:"scaler,omitempty"`
	Admission string `json:"admission,omitempty"`
	// Scenario injects a non-stationary timeline: a built-in name, a
	// @file.json reference, or inline JSON (scenario.Parse).
	Scenario string `json:"scenario,omitempty"`
	// Trace replays a recorded NDJSON arrival trace (the fleet CLI's
	// -record output, or any tracer export at sample 1) instead of
	// synthesizing the diurnal day: the path is loaded with LoadTrace
	// and installed as Engine.TraceSrc. When Models is empty the
	// trace's models are adopted.
	Trace string `json:"trace,omitempty"`
	// Cache models a request cache tier in front of routing (hit-rate
	// curves keyed by tracked warmth; see CacheSpec). The zero value
	// disables it.
	Cache CacheSpec `json:"cache,omitempty"`
	// Grid prices the replay's measured energy against a grid
	// carbon-intensity timeline (gCO2/kWh curves, optionally per
	// region; see grid.Spec) and declares the deferrable query-class
	// share the carbon admission policy may shed. The zero value
	// disables carbon accounting entirely — results stay byte-identical
	// to a grid-less build.
	Grid grid.Spec `json:"grid,omitempty"`
	// HeadroomR is the provisioner's over-provision rate R; 0 defers
	// to DefaultSpec's serving headroom (0.15).
	HeadroomR float64 `json:"headroom_r,omitempty"`
	// Days, StepMin and PeakQPS shape the synthesized diurnal day
	// (Engine.Workloads); PeakQPS 0 auto-sizes each workload's peak to
	// ~45% of the fleet's capacity for it.
	Days    int     `json:"days,omitempty"`
	StepMin float64 `json:"step_min,omitempty"`
	PeakQPS float64 `json:"peak_qps,omitempty"`
	// Options is the engine tuning (batching, slice geometry, seed).
	Options Options `json:"options"`
}

// RegionSpec describes one region of a multi-region Spec: a named
// fleet serving its own diurnal population, phase-shifted against the
// other regions, with an RTT matrix entry per remote region.
type RegionSpec struct {
	// Name identifies the region (unique and non-empty).
	Name string `json:"name"`
	// Fleet names the region's cluster (hw.NamedFleet); empty inherits
	// the Spec's top-level Fleet.
	Fleet string `json:"fleet,omitempty"`
	// PhaseH shifts the region's diurnal peak by this many hours
	// (negative = earlier): a region at PhaseH -8 peaks eight hours
	// before the reference region, which is what makes follow-the-sun
	// spill work — one region's peak lands in another's valley.
	PhaseH float64 `json:"phase_h,omitempty"`
	// RTTMS maps destination region names to the round-trip time in
	// milliseconds a spilled query pays when served there. Missing
	// entries fall back to the destination's entry for this region
	// (RTT is symmetric), then to DefaultRTTMS.
	RTTMS map[string]float64 `json:"rtt_ms,omitempty"`
}

// SpecVersionCurrent is the spec-document version this build writes:
// 2, the multi-region form.
const SpecVersionCurrent = 2

// DefaultRTTMS is the inter-region RTT assumed between regions whose
// spec names no entry in either direction (a conservative
// cross-continent 80 ms).
const DefaultRTTMS = 80.0

// Normalize canonicalizes a spec to the current multi-region form:
// zero values fill from DefaultSpec, a legacy region-less spec
// becomes one implicit region named "local" on the spec's fleet,
// regions without a fleet inherit the top-level one, Geo defaults to
// "local", and SpecVersion is stamped. It validates what it
// canonicalizes — missing or duplicate region names, an RTT entry
// naming an unknown region, or a spec version newer than this build
// are errors. Normalizing an already-normal spec is the identity.
func (s Spec) Normalize() (Spec, error) {
	if s.SpecVersion > SpecVersionCurrent {
		return s, fmt.Errorf("fleet: spec version %d is newer than this build supports (max %d)",
			s.SpecVersion, SpecVersionCurrent)
	}
	s = s.withDefaults()
	regions := make([]RegionSpec, len(s.Regions))
	copy(regions, s.Regions)
	if len(regions) == 0 {
		regions = []RegionSpec{{Name: "local"}}
	}
	known := make(map[string]bool, len(regions))
	for i := range regions {
		if regions[i].Name == "" {
			return s, fmt.Errorf("fleet: region %d has no name", i)
		}
		if known[regions[i].Name] {
			return s, fmt.Errorf("fleet: duplicate region %q", regions[i].Name)
		}
		known[regions[i].Name] = true
		if regions[i].Fleet == "" {
			regions[i].Fleet = s.Fleet
		}
	}
	for _, r := range regions {
		for dst := range r.RTTMS {
			if !known[dst] {
				return s, fmt.Errorf("fleet: region %q rtt_ms names unknown region %q", r.Name, dst)
			}
		}
	}
	s.Regions = regions
	if s.Geo == "" {
		s.Geo = GeoLocal
	}
	s.SpecVersion = SpecVersionCurrent
	return s, nil
}

// DefaultSpec returns the canonical run: the small characterization
// fleet serving RMC1+RMC2 for one diurnal day, p2c routing, Hercules
// provisioning at 15% headroom, the breach autoscaler, no admission
// shedding, and DefaultOptions tuning.
func DefaultSpec() Spec {
	return Spec{
		Fleet:     "small",
		Models:    []string{"DLRM-RMC1", "DLRM-RMC2"},
		Router:    PowerOfTwo,
		Policy:    "hercules",
		Scaler:    "breach",
		Admission: "none",
		Scenario:  "baseline",
		HeadroomR: 0.15,
		Days:      1,
		StepMin:   60,
		Options:   DefaultOptions(),
	}
}

// withDefaults fills a spec's zero values from DefaultSpec.
func (s Spec) withDefaults() Spec {
	def := DefaultSpec()
	if s.Fleet == "" {
		s.Fleet = def.Fleet
	}
	if len(s.Models) == 0 {
		s.Models = def.Models
	}
	if s.Router == "" {
		s.Router = def.Router
	}
	if s.Policy == "" {
		s.Policy = def.Policy
	}
	if s.Scaler == "" {
		s.Scaler = def.Scaler
	}
	if s.Admission == "" {
		s.Admission = def.Admission
	}
	if s.Scenario == "" {
		s.Scenario = def.Scenario
	}
	if s.HeadroomR <= 0 {
		s.HeadroomR = def.HeadroomR
	}
	if s.Days <= 0 {
		s.Days = def.Days
	}
	if s.StepMin <= 0 {
		s.StepMin = def.StepMin
	}
	if s.Options == (Options{}) {
		s.Options = def.Options
	}
	return s
}

// Option customizes NewEngine beyond what a serializable Spec can
// carry: process-local objects like a loaded profiler table, a stubbed
// service source, a custom fleet, or observer hooks.
type Option func(*engineConfig)

type engineConfig struct {
	fleet     *hw.Fleet
	table     *profiler.Table
	service   ServiceSource
	observers []Observer
	traceSrc  *TraceSource
}

// configure applies opts to a fresh engineConfig.
func configure(opts []Option) engineConfig {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithFleet overrides the spec's named fleet with an explicit one —
// for clusters that have no name (synthetic test fleets, experiment
// pools).
func WithFleet(fl hw.Fleet) Option { return func(c *engineConfig) { c.fleet = &fl } }

// WithTable supplies the profiled efficiency table. Without it,
// NewEngine and NewMultiEngine quick-calibrate the spec's (model,
// server type) pairs on the fly (seconds — CalibrateSpec); a caller
// that builds several engines from one spec calibrates once and passes
// the table here.
func WithTable(t *profiler.Table) Option { return func(c *engineConfig) { c.table = t } }

// WithService overrides the per-query service-time source (default:
// the process-wide shared SimService over the engine's table).
func WithService(src ServiceSource) Option { return func(c *engineConfig) { c.service = src } }

// WithObserver registers a per-interval stats sink (Observer) on the
// engine; repeat for several sinks.
func WithObserver(o Observer) Option {
	return func(c *engineConfig) { c.observers = append(c.observers, o) }
}

// WithTraceSource installs an already-loaded arrival trace, taking
// precedence over Spec.Trace — for callers that parsed or built the
// trace themselves (tests, in-memory record→replay round trips).
func WithTraceSource(ts *TraceSource) Option {
	return func(c *engineConfig) { c.traceSrc = ts }
}

// NewEngine assembles a replay engine from a serializable Spec plus
// process-local options: policies are resolved by name through the
// policy tables, the fleet through hw.NamedFleet, the scenario through
// scenario.Parse, and the provisioner is built fresh so runs with
// different policies never share arbitration RNG state. An unknown
// name of any kind is an error (listing the known names), never a
// silent fallback. Without WithTable the engine's fleet is calibrated
// through the same model resolution as CalibrateSpec.
func NewEngine(spec Spec, opts ...Option) (*Engine, error) {
	cfg := configure(opts)

	// Load the arrival trace before defaulting: a trace-driven run with
	// no explicit models adopts the trace's model set, not DefaultSpec's.
	traceSrc := cfg.traceSrc
	if traceSrc == nil && spec.Trace != "" {
		var err error
		if traceSrc, err = LoadTrace(spec.Trace); err != nil {
			return nil, err
		}
	}
	if traceSrc != nil && len(spec.Models) == 0 {
		spec.Models = traceSrc.Models()
	}
	spec = spec.withDefaults()
	if len(spec.Regions) > 1 {
		return nil, fmt.Errorf("fleet: spec has %d regions; use NewMultiEngine for multi-region replays", len(spec.Regions))
	}
	if len(spec.Regions) == 1 && spec.Regions[0].Fleet != "" {
		spec.Fleet = spec.Regions[0].Fleet
	}
	if spec.Geo != "" {
		if _, err := lookup(geoTable, "geo policy", spec.Geo); err != nil {
			return nil, err
		}
	}

	var err error
	if spec.Router, err = ParseRouter(spec.Router); err != nil {
		return nil, err
	}
	pol, err := cluster.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(spec.Scenario)
	if err != nil {
		return nil, err
	}
	if spec.Grid.Enabled() {
		if err := spec.Grid.Validate(); err != nil {
			return nil, err
		}
		known := []string{"local"}
		if len(spec.Regions) == 1 {
			known = []string{spec.Regions[0].Name}
		}
		if err := spec.Grid.CheckRegions(known); err != nil {
			return nil, err
		}
	}

	fl, err := hw.NamedFleet(spec.Fleet)
	if cfg.fleet != nil {
		fl, err = *cfg.fleet, nil
	}
	if err != nil {
		return nil, err
	}

	scaler, err := specScaler(spec.Scaler)
	if err != nil {
		return nil, err
	}
	admission, err := specAdmission(spec.Admission)
	if err != nil {
		return nil, err
	}

	table := cfg.table
	if table == nil {
		if table, err = calibrateModels(spec.Models, fl.Types, spec.Options.Seed); err != nil {
			return nil, err
		}
	}
	service := cfg.service
	if service == nil {
		service = SharedSimService(table)
	}

	prov := cluster.NewProvisioner(fl, table, pol, spec.Options.Seed)
	prov.OverProvisionR = spec.HeadroomR
	eng := &Engine{
		Spec:        spec,
		Fleet:       fl,
		Table:       table,
		Provisioner: prov,
		Service:     service,
		Scaler:      scaler,
		Admission:   admission,
		Observers:   cfg.observers,
		TraceSrc:    traceSrc,
		sc:          sc,
	}
	if spec.Options.TraceSample > 0 {
		eng.Tracer = telemetry.NewTracer(spec.Options.Seed, spec.Options.TraceSample, 0)
	}
	return eng, nil
}

// specScaler resolves a spec's autoscaler name ("none" disables).
func specScaler(name string) (Scaler, error) {
	if name == "none" {
		return nil, nil
	}
	return NewScaler(name)
}

// specAdmission resolves a spec's admission-policy name ("none"
// admits everything).
func specAdmission(name string) (Admission, error) {
	if name == "none" {
		return nil, nil
	}
	return NewAdmission(name)
}

// Workloads synthesizes the engine's diurnal day from its spec: one
// trace per model over Spec.Days days at Spec.StepMin-minute
// intervals, peaks at Spec.PeakQPS — or, when 0, auto-sized so each
// workload peaks at ~45% of the fleet's best-case capacity for it,
// split across the workloads: high enough that stale allocations hurt
// at the peak, low enough that the fleet is never simply exhausted.
func (e *Engine) Workloads() []cluster.Workload {
	phaseH := 0.0
	if len(e.Spec.Regions) == 1 {
		phaseH = e.Spec.Regions[0].PhaseH
	}
	return e.workloadsAt(phaseH)
}

// defaultPeakHour is the reference diurnal peak (the paper's Fig. 2d
// synchronized evening peak); a region's PhaseH shifts it.
const defaultPeakHour = 20.0

// workloadsAt is Workloads with the diurnal peak shifted by phaseH
// hours — the per-region day of a multi-region replay.
func (e *Engine) workloadsAt(phaseH float64) []cluster.Workload {
	spec := e.Spec
	if e.TraceSrc != nil {
		// A recorded day is its own workload description: per-model
		// offered loads verbatim from the trace's offer records.
		return e.TraceSrc.Workloads(spec.StepMin*60, spec.Options.SliceS)
	}
	peakHour := defaultPeakHour
	if phaseH != 0 {
		peakHour = math.Mod(defaultPeakHour+phaseH, 24)
		if peakHour < 0 {
			peakHour += 24
		}
	}
	ws := make([]cluster.Workload, 0, len(spec.Models))
	for i, name := range spec.Models {
		peak := spec.PeakQPS
		if peak <= 0 {
			var total float64
			for j, srv := range e.Fleet.Types {
				if entry, ok := e.Table.Get(srv.Type, name); ok && entry.QPS > 0 {
					total += entry.QPS * float64(e.Fleet.Counts[j])
				}
			}
			peak = total * 0.45 / float64(len(spec.Models))
		}
		cfg := workload.DiurnalConfig{
			Service:    name,
			PeakQPS:    peak,
			ValleyFrac: 0.4,
			PeakHour:   peakHour,
			Days:       spec.Days,
			StepMin:    spec.StepMin,
			NoiseStd:   0.02,
			Seed:       spec.Options.Seed + int64(i),
		}
		ws = append(ws, cluster.Workload{Model: name, Trace: workload.Synthesize(cfg)})
	}
	return ws
}
