package fleet

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hercules/internal/cluster"
	"hercules/internal/grid"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/power"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// Options tunes the replay engine. It is embedded in Spec, so the
// field tags define the "options" object of the run-spec JSON.
type Options struct {
	// QueueCap is the bounded per-instance dispatch queue (waiting
	// slots behind the in-service queries).
	QueueCap int `json:"queue_cap"`
	// SliceS is the sampled traffic slice simulated per trace interval.
	SliceS float64 `json:"slice_s"`
	// WindowS is the tail-observation window within a slice (the
	// autoscaler's and the SLA-violation metric's granularity).
	WindowS float64 `json:"window_s"`
	// ReprovisionEvery is the scheduled re-provisioning period in trace
	// intervals (the paper re-provisions at coarse intervals to
	// amortize workload setup).
	ReprovisionEvery int `json:"reprovision_every"`
	// MaxQueriesPerInterval bounds one interval's replayed queries; the
	// slice shrinks when the offered load would exceed it.
	MaxQueriesPerInterval int `json:"max_queries_per_interval"`
	// MaxBatch enables dynamic per-instance batching: each instance
	// coalesces up to MaxBatch queued queries into one dispatch, priced
	// by the service source's batching-efficiency curve (BatchSource).
	// 1 disables batching and preserves the per-query replay bit for
	// bit; values below 1 are treated as 1.
	MaxBatch int `json:"max_batch"`
	// BatchWaitS is the longest a forming batch waits for companions
	// before dispatching anyway — the latency the throughput gain is
	// bought with. Only meaningful when MaxBatch > 1.
	BatchWaitS float64 `json:"batch_wait_s"`
	// TraceSample enables the deterministically-sampled per-query
	// tracer: N traces 1 in N queries (1 traces every query), 0
	// disables tracing. Sample membership is a seeded hash of each
	// query's (interval, model, index) identity, so every replay of
	// the same spec traces the same queries and emits a byte-identical
	// event stream. NewEngine materializes the
	// tracer as Engine.Tracer; attach export sinks there.
	TraceSample int `json:"trace_sample,omitempty"`
	// Seed drives all replay randomness.
	Seed int64 `json:"seed"`
}

// DefaultOptions returns the tuning used by the experiments: 8-second
// slices observed in 1-second windows, hourly scheduled re-provisioning
// on 15-minute traces.
func DefaultOptions() Options {
	return Options{
		QueueCap:              32,
		SliceS:                8,
		WindowS:               1,
		ReprovisionEvery:      4,
		MaxQueriesPerInterval: 150000,
		MaxBatch:              1,
		BatchWaitS:            0.002,
		Seed:                  42,
	}
}

// Engine replays days of traffic against a provisioned fleet.
// NewEngine assembles one from a serializable Spec.
type Engine struct {
	// Spec is the normalized run description the engine was built from
	// (Spec.Normalize; exactly one region, Regions[0]) and the one
	// source of its configuration: the router name (RunDay resolves it
	// through routerTable, once, and instantiates a fresh Router per
	// model pool and interval), the cache tier, the grid, the scenario,
	// the engine Options, and the day Workloads synthesizes.
	Spec        Spec
	Fleet       hw.Fleet
	Table       *profiler.Table
	Provisioner *cluster.Provisioner
	Service     ServiceSource
	// Scaler is the online autoscaling policy; nil disables early
	// re-provisioning (scheduled intervals only).
	Scaler Scaler
	// Admission is the SLA-aware load-shedding policy consulted per
	// interval and workload before routing; nil admits everything.
	Admission Admission
	// Observers receive every interval's finalized stats as the replay
	// produces them, in order — the streaming hook the DayResult
	// aggregation itself is built on.
	Observers []Observer
	// Tracer collects sampled per-query lifecycle events
	// (telemetry.Kind) when non-nil: each model's replay task stages
	// events in its own buffers, and the replay goroutine drains them
	// in model-name order after each interval and flushes the tracer's
	// sinks. NewEngine creates one when Options.TraceSample > 0.
	Tracer *telemetry.Tracer
	// TraceSrc replays a recorded arrival trace instead of generating
	// queries: each interval's stream comes verbatim from the trace
	// (IDs, arrival instants, sizes, sparse scales), offered loads from
	// its offer records, and the scenario's traffic-shaping effects
	// (spikes, mix shifts) are skipped — they are already baked into
	// the recorded arrivals. Shedding, admission, fleet effects and the
	// cache tier re-apply as live policy. NewEngine sets it from
	// Spec.Trace or WithTraceSource.
	TraceSrc *TraceSource

	// sc is the parsed Spec.Scenario; every RunDay compiles it against
	// its workloads' trace geometry when it is active.
	sc        scenario.Scenario
	newRouter func() Router
	models    map[string]*model.Model
	meanSvc   map[pairKey]float64
	batchEff  map[pairKey][]float64
	prevObs   map[string]modelObs
	instSeq   int
	baseOverR float64
	// typeW caches per-type server idle and TDP watts (typeWatts).
	typeW map[string]serverWatts
	// gridTL is the day's compiled carbon-intensity timeline (nil reads
	// as zero intensity — the no-grid replay).
	gridTL *grid.Timeline
	// util is the fleet's mean channel utilization over the last
	// interval that ran instances (ScalerSignal.Utilization).
	util    float64
	scratch replayScratch
	// run is the in-flight day's cross-interval state (beginDay sets
	// it, endDay clears it); an Engine replays one day at a time.
	run *dayRun

	// cacheActive gates every cache branch for one RunDay; the maps are
	// the tier's per-model state (see cache.go).
	cacheActive   bool
	cacheWarmth   map[string]float64
	cachePrevSize map[string]float64
	cacheHitPrev  map[string]float64
}

// modelObs is the per-model observation admission policies condition
// on: what the previous interval's replayed slice recorded.
type modelObs struct {
	p99MS    float64
	dropFrac float64
}

// replayScratch holds the buffers one RunDay reuses across intervals so
// the replay loop stops allocating after the first interval: the
// per-model task pool (each task keeps its query and window buffers)
// and the latency merge buffers. An Engine must not run concurrent
// RunDays (it never could — the provisioner and autoscaler are also
// per-engine state).
type replayScratch struct {
	tasks    []*poolTask // grown on demand, reused each interval
	pending  sync.WaitGroup
	breached []bool
	// sel selects the exact tails straight from the tasks' window
	// buffers; segs lists every task's windows, task by task.
	sel  stats.Selector
	segs [][]float64
}

// IntervalStats records one trace interval of the replay.
type IntervalStats struct {
	Index      int     `json:"index"`
	TimeH      float64 `json:"time_h"`
	OfferedQPS float64 `json:"offered_qps"`
	Queries    int     `json:"queries"`
	Drops      int     `json:"drops"`
	// Shed counts queries rejected at admission by a load-shedding
	// scenario event (never offered to a server, not an SLA breach).
	Shed int `json:"shed,omitempty"`
	// DeadServers is how many fleet servers a scenario failure event
	// holds down during this interval.
	DeadServers int `json:"dead_servers,omitempty"`
	// CacheHits counts queries the cache tier served (at cache latency,
	// never routed); CacheHitRate is hits over admitted queries and
	// CacheWarmth the per-model warmth state after this interval's
	// flush/refill. All zero (and omitted) when the tier is disabled.
	CacheHits    int                `json:"cache_hits,omitempty"`
	CacheHitRate float64            `json:"cache_hit_rate,omitempty"`
	CacheWarmth  map[string]float64 `json:"cache_warmth,omitempty"`
	P50MS        float64            `json:"p50_ms"`
	P95MS        float64            `json:"p95_ms"`
	P99MS        float64            `json:"p99_ms"`
	// ModelP95MS / ModelP99MS are per-model windowless tails.
	ModelP95MS map[string]float64 `json:"model_p95_ms"`
	ModelP99MS map[string]float64 `json:"model_p99_ms"`
	// ViolationMin extrapolates breached observation windows to
	// wall-clock minutes of SLA violation in this interval.
	ViolationMin    float64 `json:"violation_min"`
	WindowsBreached int     `json:"windows_breached"`
	Windows         int     `json:"windows"`
	ActiveServers   int     `json:"active_servers"`
	ProvisionedKW   float64 `json:"provisioned_kw"`
	// EnergyKJ is measured energy (idle + utilization-proportional
	// dynamic power over the interval); ProvisionedEnergyKJ integrates
	// the provisioned budget the cluster layer reports.
	EnergyKJ            float64 `json:"energy_kj"`
	ProvisionedEnergyKJ float64 `json:"provisioned_energy_kj"`
	// GridGPerKWh is the grid carbon intensity this interval's energy
	// was priced at, and CarbonG the resulting emissions in grams of
	// CO2. Both zero (and omitted) when no grid is configured.
	GridGPerKWh float64 `json:"grid_g_per_kwh,omitempty"`
	CarbonG     float64 `json:"carbon_g,omitempty"`
	// PowerCappedTypes counts server types a powercap scenario event
	// holds under a watt budget this interval.
	PowerCappedTypes int  `json:"power_capped_types,omitempty"`
	Reprovisioned    bool `json:"reprovisioned"`
	EarlyReprovision bool `json:"early_reprovision"`
	Boosted          bool `json:"boosted"`
	// SpillInServed / SpillInDropped count the remote-origin queries a
	// geo-router spilled into this region's fleet (served with their
	// inter-region RTT added to latency, or dropped here); SpillOutQPS
	// is the offered load the geo-router sent away to other regions
	// this interval. All zero (and omitted) outside multi-region runs.
	SpillInServed  int     `json:"spill_in_served,omitempty"`
	SpillInDropped int     `json:"spill_in_dropped,omitempty"`
	SpillOutQPS    float64 `json:"spill_out_qps,omitempty"`
}

// DayResult aggregates a full replay: the fold of the per-interval
// Observer stream RunDay also hands to caller-registered observers.
type DayResult struct {
	Router string `json:"router"`
	Policy string `json:"policy"`
	// Scaler and Admission name the run's autoscaling and admission
	// policies (empty when disabled).
	Scaler    string `json:"scaler,omitempty"`
	Admission string `json:"admission,omitempty"`
	// Scenario names the injected scenario timeline ("baseline" when
	// the engine replayed the unperturbed diurnal day).
	Scenario string `json:"scenario"`
	// Region names the regional fleet this result replayed (empty for
	// single-region runs); Geo names the geo-routing policy of the
	// multi-region run it belongs to.
	Region string          `json:"region,omitempty"`
	Geo    string          `json:"geo,omitempty"`
	Steps  []IntervalStats `json:"intervals"`

	TotalQueries int `json:"total_queries"`
	TotalDrops   int `json:"total_drops"`
	TotalShed    int `json:"total_shed,omitempty"`
	// TotalCacheHits and CacheHitRate aggregate the cache tier's serves
	// (zero and omitted when the tier is disabled).
	TotalCacheHits      int     `json:"total_cache_hits,omitempty"`
	CacheHitRate        float64 `json:"cache_hit_rate,omitempty"`
	DropFrac            float64 `json:"drop_frac"`
	SLAViolationMin     float64 `json:"sla_violation_min"`
	MeanP95MS           float64 `json:"mean_p95_ms"`
	MaxP95MS            float64 `json:"max_p95_ms"`
	MeanP99MS           float64 `json:"mean_p99_ms"`
	MaxP99MS            float64 `json:"max_p99_ms"`
	EnergyKJ            float64 `json:"energy_kj"`
	ProvisionedEnergyKJ float64 `json:"provisioned_energy_kj"`
	// TotalCarbonG prices the day's measured energy against the grid
	// carbon-intensity timeline, and CarbonPerQueryG is that total over
	// served queries — gCO2/query next to J/query. Both zero (and
	// omitted) when no grid is configured.
	TotalCarbonG      float64 `json:"total_carbon_g,omitempty"`
	CarbonPerQueryG   float64 `json:"carbon_per_query_g,omitempty"`
	Reprovisions      int     `json:"reprovisions"`
	EarlyReprovisions int     `json:"early_reprovisions"`
	AutoscaleEvents   int     `json:"autoscale_events"`
	// BoostedIntervals counts intervals replayed with autoscaler boost
	// headroom in force — the day-level view of IntervalStats.Boosted
	// (per-interval flags don't survive a cross-engine merge; a count
	// does).
	BoostedIntervals int `json:"boosted_intervals,omitempty"`
	// SpillInServed / SpillInDropped aggregate the remote-origin
	// queries geo-routing spilled into this result's fleet.
	SpillInServed  int `json:"spill_in_served,omitempty"`
	SpillInDropped int `json:"spill_in_dropped,omitempty"`
	// Regions holds the per-region results of a multi-region replay
	// (MultiEngine.RunDay); the enclosing DayResult is their global
	// merge. Empty for single-region runs.
	Regions []DayResult `json:"regions,omitempty"`
}

// RunDay replays the workloads' aligned diurnal traces end to end and
// returns per-interval and aggregate serving metrics.
//
// With a Spec.Scenario set, each interval first applies the scenario's
// traffic effects (load scaling, query-mix shifts, admission shedding)
// and fleet effects (kills, derates). Kills bite immediately — the
// affected instances vanish from the serving pools mid-replay — but the
// control plane only learns of them at the interval's end, triggering
// an early re-provision at the next boundary against the degraded
// availability. Derates are never reported to the control plane: only
// tail latency (and hence the autoscaler) can see them.
func (e *Engine) RunDay(ws []cluster.Workload) (DayResult, error) {
	days, err := runDays([]*Engine{e}, [][]cluster.Workload{ws}, e.sc, nil)
	return days[0], err
}

// runDays is the one day loop: it replays engine r's day over wss[r],
// every engine in lockstep — one engine for Engine.RunDay, one per
// region for MultiEngine.RunDay. The scenario compiles per engine
// region (scenario.CompileRegions) on every call, against the common
// horizon of the shortest trace. A non-nil geo (two or more engines)
// moves load between them at every interval boundary. On error each
// result carries only its engine's labels.
func runDays(engines []*Engine, wss [][]cluster.Workload, sc scenario.Scenario, geo *geoStep) ([]DayResult, error) {
	names := make([]string, len(engines))
	for r, eng := range engines {
		names[r] = eng.Spec.Regions[0].Name
	}
	abort := func(err error) ([]DayResult, error) {
		days := make([]DayResult, len(engines))
		for r, eng := range engines {
			if eng.run != nil {
				days[r], eng.run = eng.run.res, nil
			}
		}
		return days, err
	}

	steps := 0
	for r, eng := range engines {
		if err := eng.beginDay(wss[r]); err != nil {
			if len(engines) > 1 {
				err = fmt.Errorf("fleet: region %q: %w", names[r], err)
			}
			return abort(err)
		}
		if r == 0 || eng.run.steps < steps {
			steps = eng.run.steps
		}
	}
	// Blackouts expand to victim kills plus survivor spikes here.
	var tls map[string]*scenario.Timeline
	if sc.Active() {
		counts := make(map[string]map[string]int, len(engines))
		for r, eng := range engines {
			counts[names[r]] = eng.fleetCounts()
		}
		var err error
		if tls, err = scenario.CompileRegions(sc, steps, engines[0].run.stepS, names, counts); err != nil {
			return abort(fmt.Errorf("fleet: %w", err))
		}
	}
	for r, eng := range engines {
		eng.run.steps, eng.run.tl = steps, tls[names[r]]
		if tls != nil {
			eng.run.res.Scenario = sc.Name
		}
	}

	for i := 0; i < steps; i++ {
		if geo != nil {
			geo.route(i, engines)
		}
		for r, eng := range engines {
			eng.prepareInterval(i, geo.adjust(r))
		}
		// Every engine's pools replay on one set of workers; finishing
		// in engine order keeps observers and shared trace sinks
		// deterministic.
		runInterval(engines)
	}

	days := make([]DayResult, len(engines))
	for r, eng := range engines {
		days[r] = eng.endDay()
	}
	return days, nil
}

// dayRun is one in-flight day's cross-interval state, kept per engine
// so runDays can step several engines interval by interval: beginDay
// → (prepareInterval, runInterval) × steps → endDay.
type dayRun struct {
	ws    []cluster.Workload
	res   DayResult
	agg   *dayAggregator
	sinks []Observer
	steps int
	stepS float64
	every int
	// tl is the day's compiled scenario timeline (nil replays the
	// unperturbed diurnal baseline).
	tl *scenario.Timeline

	insts        map[string][]*Instance
	active       cluster.StepResult
	earlyPending bool
	extraR       float64
	// knownFleet is the control plane's (detection-lagged) view of
	// scenario fleet health: kills observed up to the previous interval.
	knownFleet scenario.Effects

	// The interval in flight between prepareInterval and
	// finishInterval: its stats so far, scenario effects and their
	// resolved fleet health, effective pools (live instances per
	// model), offered models (sorted), slice length and replay tasks
	// (model-name order).
	ist    IntervalStats
	eff    scenario.Effects
	health healthMap
	pools  map[string][]*Instance
	models []string
	sliceS float64
	tasks  []*poolTask
}

// beginDay validates the workloads, resolves policies and seeds the
// per-day state. Every error path leaves e.run set (its res carries
// the run's labels); on success the caller steps every interval and
// then calls endDay.
func (e *Engine) beginDay(ws []cluster.Workload) error {
	e.run = &dayRun{ws: ws}
	r := e.run
	r.res = DayResult{Router: e.Spec.Router, Policy: e.Provisioner.Kind.String(), Scenario: "baseline"}
	if e.Scaler != nil {
		r.res.Scaler = e.Scaler.Name()
	}
	if e.Admission != nil {
		r.res.Admission = e.Admission.Name()
	}
	if len(ws) == 0 {
		return fmt.Errorf("fleet: no workloads")
	}
	var err error
	if e.newRouter, err = routerTable.lookup(e.Spec.Router); err != nil {
		return err
	}
	if e.Service == nil {
		e.Service = NewSimService(e.Table)
	}
	e.models = make(map[string]*model.Model, len(ws))
	for _, w := range ws {
		m, err := model.ByName(w.Model, model.Prod)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		e.models[w.Model] = m
	}
	e.meanSvc = make(map[pairKey]float64)
	e.batchEff = make(map[pairKey][]float64)
	e.prevObs = make(map[string]modelObs, len(ws))
	e.baseOverR = e.Provisioner.OverProvisionR
	e.cacheActive = e.Spec.Cache.Enabled()
	if e.cacheActive {
		names := make([]string, 0, len(ws))
		for _, w := range ws {
			names = append(names, w.Model)
		}
		e.cacheInit(names)
	}

	steps := ws[0].Trace.Steps()
	for _, w := range ws[1:] {
		steps = min(steps, w.Trace.Steps())
	}
	if steps == 0 {
		return fmt.Errorf("fleet: empty traces")
	}
	if e.TraceSrc != nil && e.TraceSrc.Steps() < steps {
		return fmt.Errorf("fleet: trace has %d intervals, workloads span %d",
			e.TraceSrc.Steps(), steps)
	}
	r.steps = steps
	r.stepS = ws[0].Trace.StepS
	r.every = max(e.Spec.Options.ReprovisionEvery, 1)

	// Compile the grid intensity timeline against the day's geometry,
	// folding the region's diurnal phase so a phase-shifted region's
	// grid tracks its local clock. No grid → nil timeline → every
	// carbon branch below is dead and the replay is byte-identical to a
	// grid-less build.
	e.gridTL = nil
	if e.Spec.Grid.Enabled() {
		reg := e.Spec.Regions[0]
		tl, err := e.Spec.Grid.Compile(reg.Name, steps, r.stepS, reg.PhaseH)
		if err != nil {
			return err
		}
		e.gridTL = tl
	}

	// The DayResult aggregation is itself an Observer on the interval
	// stream — the first in line, ahead of any caller-registered sinks,
	// so external observers see exactly what the aggregate is built
	// from.
	r.agg = &dayAggregator{res: &r.res}
	r.sinks = append([]Observer{r.agg}, e.Observers...)
	return nil
}

// offeredLoads sums interval i's offered QPS per model, with the
// scenario's traffic scaling applied (replayed traces carry
// post-scenario loads — their offers were recorded after spike
// scaling — so only synthesized days scale here).
func (e *Engine) offeredLoads(i int, eff scenario.Effects) map[string]float64 {
	loads := make(map[string]float64, len(e.run.ws))
	for _, w := range e.run.ws {
		loads[w.Model] += w.Trace.LoadsQPS[i]
	}
	if e.TraceSrc == nil {
		for m := range loads {
			loads[m] *= eff.Load(m)
		}
	}
	return loads
}

// geoAdjust is one region's geo-routing outcome for one interval: the
// fraction of home load kept local, the remote-origin load arriving
// per model, the inbound-weighted mean inter-region RTT those remote
// queries pay on top of serving latency, and the home load routed
// away. nil means no geo layer — the interval replays exactly as a
// single-region day.
type geoAdjust struct {
	keep    float64
	inbound map[string]float64
	rttS    float64
	outQPS  float64
}

// prepareInterval readies trace interval i against the current fleet
// state: re-provision if due, apply scenario fleet effects, record the
// interval's provisioning, and build one replay task per model
// (buildTasks); runInterval then replays and finishes it. Must be
// called with consecutive i after beginDay.
func (e *Engine) prepareInterval(i int, adj *geoAdjust) {
	r := e.run
	eff := r.tl.At(i)
	loads := e.offeredLoads(i, eff)
	if adj != nil {
		for m := range loads {
			loads[m] *= adj.keep
		}
		for m, add := range adj.inbound {
			loads[m] += add
		}
	}
	scheduled := i%r.every == 0
	reprovision := i == 0 || scheduled || r.earlyPending
	if reprovision {
		// A carbon-aware scaler may return negative extraR to run lean
		// in dirty hours; headroom never goes below zero.
		e.Provisioner.OverProvisionR = math.Max(e.baseOverR+r.extraR, 0)
		e.Provisioner.Unavailable = r.knownFleet.Killed
		provLoads := loads
		if e.cacheActive {
			// The control plane provisions for the backend (miss)
			// load: offered load net of each model's lagged measured
			// hit rate. The lag is what turns a cache flush into a
			// storm — the fleet stays sized for the warm-cache miss
			// rate until the next re-provision learns otherwise.
			provLoads = e.cacheMissLoads(loads)
		}
		r.active = e.Provisioner.Step(provLoads)
		r.insts = e.buildInstances(r.active.Alloc)
	}

	r.eff, r.health = eff, nil
	if len(eff.Killed) > 0 || len(eff.DerateFrac) > 0 || len(eff.PowerCapW) > 0 {
		r.health = e.fleetHealth(eff)
	}
	pools, dead := effectiveInstances(r.insts, r.health)
	r.pools = pools
	r.ist = IntervalStats{
		Index:            i,
		TimeH:            float64(i) * r.stepS / 3600,
		ModelP95MS:       make(map[string]float64),
		ModelP99MS:       make(map[string]float64),
		Reprovisioned:    reprovision,
		EarlyReprovision: reprovision && r.earlyPending && !scheduled,
		// extraR still holds the previous IntervalEnd's return — the
		// boost headroom in force for exactly this interval. The
		// breachScaler's boostLeft already looks one interval ahead.
		Boosted:             r.extraR > 0,
		ActiveServers:       r.active.ActiveServers,
		DeadServers:         dead,
		PowerCappedTypes:    len(eff.PowerCapW),
		ProvisionedKW:       r.active.ProvisionedPowerW / 1e3,
		ProvisionedEnergyKJ: r.active.ProvisionedPowerW * r.stepS / 1e3,
	}
	if adj != nil {
		r.ist.SpillOutQPS = adj.outQPS
	}
	r.tasks = e.buildTasks(i, loads, pools, eff, adj)
}

// endDay finalizes the aggregation and restores the provisioner,
// returning the day's result.
func (e *Engine) endDay() DayResult {
	r := e.run
	r.agg.finish(r.steps)
	if e.Scaler != nil {
		r.res.AutoscaleEvents = e.Scaler.TriggerCount()
	}
	e.Provisioner.OverProvisionR = e.baseOverR
	e.Provisioner.Unavailable = nil
	e.run = nil
	return r.res
}

// effectiveInstances applies an interval's resolved fleet health to
// the provisioned pools: killed servers disappear (highest instance IDs
// of the affected type first — one failure domain), slowed servers are
// replaced by slowed clones. It returns the pools to replay against
// plus the fleet-wide count of down servers. With no fleet effects (nil
// health) the input pools are returned untouched.
func effectiveInstances(insts map[string][]*Instance, health healthMap) (map[string][]*Instance, int) {
	if health == nil {
		return insts, 0
	}
	// A type's pools can keep at most its live servers; anything the
	// current allocation holds beyond that is dead. When the allocation
	// was computed against the degraded availability, nothing is
	// filtered.
	ids := make(map[string][]int)
	for _, pool := range insts {
		for _, in := range pool {
			if h := health[in.Type]; h.alive < h.count {
				ids[in.Type] = append(ids[in.Type], in.ID)
			}
		}
	}
	deadIDs := make(map[int]bool)
	deadServers := 0
	for t, h := range health {
		deadServers += h.count - h.alive
		if budget := len(ids[t]) - h.alive; budget > 0 {
			sort.Sort(sort.Reverse(sort.IntSlice(ids[t])))
			for _, id := range ids[t][:budget] {
				deadIDs[id] = true
			}
		}
	}
	out := make(map[string][]*Instance, len(insts))
	for m, pool := range insts {
		kept := make([]*Instance, 0, len(pool))
		for _, in := range pool {
			if deadIDs[in.ID] {
				continue
			}
			if f := health.speed(in.Type); f < 1 {
				in = in.Slowed(1 / f)
			}
			kept = append(kept, in)
		}
		out[m] = kept
	}
	return out, deadServers
}

// fleetCounts aggregates the fleet's availability by server type.
func (e *Engine) fleetCounts() map[string]int {
	counts := make(map[string]int, len(e.Fleet.Types))
	for i, srv := range e.Fleet.Types {
		counts[srv.Type] += e.Fleet.Counts[i]
	}
	return counts
}

// typeHealth is one server type's state under an interval's fleet
// effects: its fleet size, the servers a kill leaves alive, the
// survivors' service-rate multiplier and their per-server power
// ceiling (0 = uncapped).
type typeHealth struct {
	count, alive int
	speed, capW  float64
}

// healthMap is fleetHealth's per-type resolution.
type healthMap map[string]typeHealth

// speed returns the type's service-rate multiplier; a type absent from
// the map (or a nil map) runs at full speed.
func (hm healthMap) speed(t string) float64 {
	if h, ok := hm[t]; ok {
		return h.speed
	}
	return 1
}

// fleetHealth resolves an interval's fleet effects for every server
// type of the fleet. A powercap splits the type's watt budget across
// its survivors, and a server held at a fraction of its TDP runs at (to
// first order) that fraction of its service rate, floored at 5% so a
// starvation-level budget slows servers instead of dividing by zero; a
// budget covering full TDP does not throttle. A derate and a powercap
// on the same type never coexist (scenario validation rejects the
// overlap), but a powercap composes with the type's survivors of a
// kill.
func (e *Engine) fleetHealth(eff scenario.Effects) healthMap {
	counts := e.fleetCounts()
	out := make(healthMap, len(counts))
	for t, n := range counts {
		h := typeHealth{count: n, alive: n - min(eff.KilledOf(t), n), speed: eff.DerateOf(t)}
		if w, ok := eff.PowerCapW[t]; ok && h.alive > 0 {
			h.capW = w / float64(h.alive)
			if tdp := e.typeWatts(t).tdp; tdp > 0 {
				if f := math.Min(math.Max(h.capW/tdp, 0.05), 1); f < 1 {
					h.speed *= f
				}
			}
		}
		out[t] = h
	}
	return out
}

// serverWatts is a server type's idle and TDP power.
type serverWatts struct{ idle, tdp float64 }

// typeWatts resolves (and caches) a server type's idle and TDP power.
func (e *Engine) typeWatts(t string) serverWatts {
	if w, ok := e.typeW[t]; ok {
		return w
	}
	var w serverWatts
	if srv, err := serverByType(t); err == nil {
		w = serverWatts{idle: srv.IdleWatts(), tdp: srv.TDPWatts()}
	}
	if e.typeW == nil {
		e.typeW = make(map[string]serverWatts)
	}
	e.typeW[t] = w
	return w
}

// buildInstances turns an allocation into per-model instance pools
// with deterministic IDs (types and models visited in sorted order).
func (e *Engine) buildInstances(alloc cluster.Allocation) map[string][]*Instance {
	out := make(map[string][]*Instance)
	types := make([]string, 0, len(alloc))
	for h := range alloc {
		types = append(types, h)
	}
	sort.Strings(types)
	e.instSeq = 0
	for _, h := range types {
		row := alloc[h]
		names := make([]string, 0, len(row))
		for m := range row {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			entry, ok := e.Table.Get(h, m)
			if !ok || entry.QPS <= 0 || row[m] <= 0 {
				continue
			}
			conc := e.concurrency(h, m, entry.QPS)
			svc := e.pairService(h, m)
			weight := entry.QPS
			batchCap, eff := 1, []float64(nil)
			if e.Spec.Options.MaxBatch > 1 {
				eff = e.pairBatchEff(h, m, e.Spec.Options.MaxBatch)
				mean := e.meanSvc[pairKey{h, m}] // populated by concurrency()
				batchCap = batchCapFor(eff, mean, entry.QPS, e.models[m].SLATargetMS, e.Spec.Options.MaxBatch)
				if batchCap > 1 {
					// The router's capacity signal tracks the batched
					// saturation throughput cap / batch makespan =
					// 1 / (eff × E[solo]): pairs whose batches amortize
					// well (accelerators, NMP) legitimately absorb more
					// in-flight queries under the heterogeneity-aware
					// policy.
					weight = math.Max(entry.QPS, 1/(eff[batchCap]*mean))
				}
			}
			for k := 0; k < row[m]; k++ {
				in := NewInstance(e.instSeq, h, m, weight, conc, e.Spec.Options.QueueCap, svc)
				if batchCap > 1 {
					in.EnableBatching(batchCap, e.Spec.Options.BatchWaitS, eff[:batchCap+1])
				}
				out[m] = append(out[m], in)
				e.instSeq++
			}
		}
	}
	return out
}

// pairService resolves the per-query service-time function for a
// (server type, model) pair once, at instance-build time. Sources that
// implement PairSource hand back their precomputed sampler directly —
// the replay loop then never pays a per-query pair lookup; other
// sources fall back to a closure over the generic ServiceS path.
func (e *Engine) pairService(serverType, modelName string) func(size int, scale float64) float64 {
	if ps, ok := e.Service.(PairSource); ok {
		if f := ps.PairService(serverType, modelName); f != nil {
			return f
		}
	}
	return func(size int, scale float64) float64 {
		return e.Service.ServiceS(serverType, modelName, size, scale)
	}
}

// batchSLABudgetFrac is the share of a model's SLA a full batch's
// makespan may occupy; the remainder is left for queueing and the
// batch-formation wait. 0.35 keeps batched tails inside the SLA at the
// ~87% utilization the provisioner targets — a makespan at half the
// SLA leaves too little queueing room there.
const batchSLABudgetFrac = 0.35

// batchCapFor derives a pair's effective dynamic-batching cap from its
// measured efficiency curve: the largest batch size (up to the global
// MaxBatch) whose batched saturation throughput 1/(eff[n]·E[solo])
// beats the pair's calibrated unbatched capacity AND whose full-batch
// makespan eff[n]·n·E[solo] fits inside the SLA budget. Pairs whose
// batches never win — heavily contended models, or SLAs too tight for
// any batch makespan — keep cap 1 and replay unbatched: dynamic
// batching must be an optimization the measurements justify, never a
// blanket policy.
func batchCapFor(eff []float64, meanSvcS, qps, slaMS float64, maxBatch int) int {
	if len(eff) <= maxBatch || meanSvcS <= 0 || math.IsInf(meanSvcS, 0) || qps <= 0 {
		return 1
	}
	budgetS := slaMS / 1e3 * batchSLABudgetFrac
	for n := maxBatch; n >= 2; n-- {
		if eff[n] <= 0 {
			continue
		}
		sat := 1 / (eff[n] * meanSvcS)
		makespan := eff[n] * float64(n) * meanSvcS
		if sat >= qps && (slaMS <= 0 || makespan <= budgetS) {
			return n
		}
	}
	return 1
}

// pairBatchEff resolves (and caches per RunDay) the batching-efficiency
// curve for a pair. Sources that do not implement BatchSource — or
// cannot price the pair — yield nil, and batchCapFor then keeps the
// pair unbatched: the engine never batches on an unmeasured curve.
// (Instance.EnableBatching itself accepts a nil curve as pure
// coalescing, for tests and tools that construct pools directly.)
func (e *Engine) pairBatchEff(serverType, modelName string, maxBatch int) []float64 {
	k := pairKey{serverType, modelName}
	if eff, ok := e.batchEff[k]; ok {
		return eff
	}
	var eff []float64
	if bs, ok := e.Service.(BatchSource); ok {
		eff = bs.PairBatchEff(serverType, modelName, maxBatch)
	}
	e.batchEff[k] = eff
	return eff
}

// concurrency calibrates an instance's service channels so that its
// saturation throughput (c / E[service]) matches the profiled
// latency-bounded capacity of the pair.
func (e *Engine) concurrency(serverType, modelName string, qps float64) int {
	k := pairKey{serverType, modelName}
	mean, ok := e.meanSvc[k]
	if !ok {
		// Seed from the pair's identity, not discovery order: the same
		// (type, model) must calibrate identically regardless of which
		// allocation introduced it first.
		mean = meanServiceS(e.Service, serverType, modelName,
			stats.MixSeed(e.Spec.Options.Seed, 0x5eed, stats.HashString(serverType), stats.HashString(modelName)))
		e.meanSvc[k] = mean
	}
	if math.IsInf(mean, 0) || mean <= 0 || qps <= 0 {
		return 1
	}
	// Ceil, not round: the profiler certified the pair sustains qps
	// under its SLA, so the queue model must not undershoot it — with
	// small channel counts, rounding down would hide up to 1/(2c) of
	// certified capacity and fabricate breaches.
	return stats.ClampInt(int(math.Ceil(qps*mean)), 1, 256)
}

// chunkLen bounds the queries one fill of a task's stream produces
// (before shed thinning): 1024 queries, 32 KiB — cache-sized, and
// long enough that handing a chunk between goroutines costs well under
// a nanosecond per query.
const chunkLen = 1024

// ringSlots is the number of chunkLen slots in a task's ring: one being
// routed, one being filled, and slack so a producer preempted for a
// moment does not stall its router (on week-steady, two slots measured
// slower and eight no faster).
const ringSlots = 4

// Profile labels of the replay's stages, built once: applying one with
// pprof.SetGoroutineLabels neither allocates nor reads a clock.
var (
	generateLabels = pprof.WithLabels(context.Background(), pprof.Labels("stage", "generate"))
	routeLabels    = pprof.WithLabels(context.Background(), pprof.Labels("stage", "route"))
	mergeLabels    = pprof.WithLabels(context.Background(), pprof.Labels("stage", "merge"))
)

// poolTask is one model's replay task for an interval: the model's
// whole effective pool plus its admitted query stream, routed by one
// router over one seeded RNG stream. Tasks of different models (and
// regions) share nothing, so they run concurrently. Tasks are pooled
// by replayScratch and reused across intervals; reset re-arms one,
// keeping its backing arrays.
type poolTask struct {
	modelName string
	insts     []*Instance

	// The admitted stream, read in chunks (fill): the recorded arrivals
	// in rec when fromTrace, else qps of model generated from genSeed
	// with sizes scaled by sizeScale; then thinned by shedFrac on the
	// shedSeed stream.
	fromTrace bool
	rec       []workload.Query // recorded arrivals not yet read (never written)
	model     *model.Model
	qps       float64
	genSeed   int64
	sizeScale float64
	shedFrac  float64
	shedSeed  int64

	// Stream state, owned by whichever goroutine fills the chunks: run
	// itself, or the producer run starts when produce is set.
	gen     *workload.Generator
	genDone bool // the generator reached the slice end (always, when recorded)
	shedR   *rand.Rand
	shed    int // queries rejected at the door

	// ring holds ringSlots chunks reused across intervals. produce (set
	// by runInterval) fills them on a producer goroutine one chunk ahead
	// of routing, handed over full and back free (the channels are made
	// when a task first needs them). Like the worker count, it is a
	// scheduling choice: the chunks are the same either way.
	ring       []workload.Query
	produce    bool
	full, free chan []workload.Query

	newRouter func() Router
	seed      int64
	pending   *sync.WaitGroup // the engine's count of unfinished tasks
	windowW   float64
	windows   int
	sliceS    float64 // busy-accounting horizon for this interval's slice
	maxBatch  int     // sizes the completions scratch (1 = unbatched)

	// comps is the per-arrival completions scratch of the batched loop,
	// reused across queries and intervals.
	comps []Completion

	// Cache tier: cacheHR > 0 enables the hit test — a deterministic
	// Bernoulli draw on cacheStream hashed with the query ID, so the
	// set of hits is a pure function of the query's identity. Hits
	// complete at cacheLatS and skip routing.
	cacheHR     float64
	cacheLatS   float64
	cacheStream uint64

	// Geo spill: remoteFrac > 0 marks that fraction of the stream as
	// remote-origin queries a geo-router spilled into this region. Like
	// cache hits, membership is a deterministic Bernoulli draw (on
	// remoteStream) hashed from the query's identity. Remote queries pay
	// remoteRTTS on top of serving (or cache-hit) latency and are
	// counted separately served/dropped.
	remoteFrac    float64
	remoteRTTS    float64
	remoteStream  uint64
	remoteServed  int
	remoteDropped int

	// trace stages this task's sampled lifecycle events (single
	// writer: exactly this task during the interval); door stages the
	// engine-level events built ahead of the replay (the interval's
	// offer record, arrival+shed pairs of sampled shed queries). The
	// engine drains both in model-name order afterwards. traceOn gates
	// every tracing branch so the untraced replay pays one boolean test
	// per query.
	trace   telemetry.ShardBuf
	door    telemetry.ShardBuf
	traceOn bool

	// outputs
	winLatMS [][]float64 // per-window latency samples (ms)
	winDrops []int
	admitted int // queries past the door
	dropped  int
	hits     int // queries the cache tier served
}

// reset re-arms a pooled task for an interval with the given window
// count, reusing every backing array. Tracing is re-armed separately
// (the engine arms trace/door/traceOn per model).
func (w *poolTask) reset(windows int) {
	w.rec = nil
	w.admitted = 0
	w.dropped = 0
	w.shed = 0
	w.hits = 0
	w.cacheHR = 0
	w.remoteFrac, w.remoteRTTS = 0, 0
	w.remoteServed, w.remoteDropped = 0, 0
	w.windows = windows
	w.traceOn = false
	for cap(w.winLatMS) < windows {
		w.winLatMS = append(w.winLatMS[:cap(w.winLatMS)], nil)
	}
	w.winLatMS = w.winLatMS[:windows]
	for i := range w.winLatMS {
		w.winLatMS[i] = w.winLatMS[i][:0]
	}
	if cap(w.winDrops) < windows {
		w.winDrops = make([]int, windows)
	}
	w.winDrops = w.winDrops[:windows]
	for i := range w.winDrops {
		w.winDrops[i] = 0
	}
}

// observe records one served query's latency into its observation
// window's sample buffer, in milliseconds, the unit every tail
// threshold uses.
func (w *poolTask) observe(wi int, latS float64) {
	w.winLatMS[wi] = append(w.winLatMS[wi], latS*1e3)
}

// cacheServe runs one query through the cache tier: a hit completes at
// cache latency (plus the query's inter-region RTT when it arrived by
// geo spill), counts as served, and never reaches a router (nor a
// drop — the tier sits ahead of the pool-empty check). Returns whether
// the query was served there.
func (w *poolTask) cacheServe(q workload.Query, wi int, remote, sampled bool) bool {
	if w.cacheHR <= 0 || !cacheHit(w.cacheStream, q.ID, w.cacheHR) {
		return false
	}
	w.hits++
	rtt := 0.0
	if remote {
		rtt = w.remoteRTTS
		w.remoteServed++
	}
	w.observe(wi, w.cacheLatS+rtt)
	if sampled {
		ev := w.trace.Emit(telemetry.KindHit, q.ID, q.ArrivalS)
		ev.Value = w.cacheLatS + rtt
	}
	return true
}

// drop counts one rejected query: the pool was empty (instID -1) or
// instance instID's bounded queue was full.
func (w *poolTask) drop(q workload.Query, wi int, remote, sampled bool, instID int) {
	w.dropped++
	w.winDrops[wi]++
	if remote {
		w.remoteDropped++
	}
	if sampled {
		ev := w.trace.Emit(telemetry.KindDrop, q.ID, q.ArrivalS)
		ev.Instance = int32(instID)
	}
}

// serve records one served query: its latency (plus RTT when remote)
// into window wi and, when sampled, its service-side events: enqueue
// (queue wait), start (with batch size), end (service span) and
// complete (total latency).
func (w *poolTask) serve(wi int, id int64, instID int, arrS, startS, doneS float64, batch int, remote, sampled bool) {
	rtt := 0.0
	if remote {
		rtt = w.remoteRTTS
		w.remoteServed++
	}
	w.observe(wi, doneS-arrS+rtt)
	if !sampled {
		return
	}
	ev := w.trace.Emit(telemetry.KindEnqueue, id, startS)
	ev.Instance = int32(instID)
	ev.Value = startS - arrS
	ev = w.trace.Emit(telemetry.KindStart, id, startS)
	ev.Instance = int32(instID)
	ev.Value = float64(batch)
	ev = w.trace.Emit(telemetry.KindEnd, id, doneS)
	ev.Instance = int32(instID)
	ev.Value = doneS - startS
	ev = w.trace.Emit(telemetry.KindComplete, id, doneS)
	ev.Instance = int32(instID)
	ev.Value = doneS - arrS
}

// openStream arms the task's admitted stream: the generator (unless
// the arrivals are recorded) and the shed stream. With tracing on, the
// door buffer first records the interval's offer (the offered load and
// slice the replay provisioned with — what lets a recorded trace
// re-provision identically on re-ingestion); fill then adds
// arrival+shed pairs of sampled shed queries.
func (w *poolTask) openStream() {
	if w.traceOn {
		ev := w.door.Emit(telemetry.KindOffer, -1, 0)
		ev.Value = w.qps
		ev.Aux = w.sliceS
	}
	w.genDone = w.fromTrace
	if !w.fromTrace {
		w.gen = workload.NewGenerator(w.model, w.qps, w.genSeed)
		if w.sizeScale != 1 {
			// Shift the lognormal's median: the mix rotation makes every
			// query sizeScale× heavier without touching the arrival
			// process.
			w.gen.Sizes.Mu += math.Log(w.sizeScale)
		}
	}
	w.shedR = nil
	if w.shedFrac > 0 {
		w.shedR = stats.NewRand(w.shedSeed)
	}
}

// drained reports whether fill has read the whole stream.
func (w *poolTask) drained() bool { return w.genDone && len(w.rec) == 0 }

// fill returns the stream's next chunk: up to chunkLen arrivals,
// thinned by the door's shed fraction, so possibly empty. A generated
// or thinned chunk is written into buf, a chunkLen ring slot; an
// unthinned recorded chunk is the recording's own subslice. Filling
// chunk by chunk until drained yields exactly the one-shot stream.
func (w *poolTask) fill(buf []workload.Query) []workload.Query {
	var raw []workload.Query
	if n := min(len(w.rec), chunkLen); n > 0 {
		raw, w.rec = w.rec[:n], w.rec[n:]
	} else {
		raw, w.genDone = w.gen.AppendUntilN(buf[:0], w.sliceS, chunkLen)
	}
	if w.shedR == nil {
		return raw
	}
	// Admission control drops a deterministic Bernoulli thinning of the
	// stream; shed queries never reach a router. Thinning works in place
	// when raw is buf: the kept prefix never overtakes the read.
	kept := buf[:0]
	for _, q := range raw {
		if w.shedR.Float64() < w.shedFrac {
			w.shed++
			if w.traceOn && w.door.Sampled(q.ID) {
				ev := w.door.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
				ev.Value = float64(q.Size)
				ev.Aux = q.SparseScale
				ev = w.door.Emit(telemetry.KindShed, q.ID, q.ArrivalS)
				ev.Value = w.shedFrac
			}
			continue
		}
		kept = append(kept, q)
	}
	return kept
}

// slot returns ring slot i, empty with capacity chunkLen.
func (w *poolTask) slot(i int) []workload.Query {
	return w.ring[i*chunkLen : i*chunkLen : (i+1)*chunkLen]
}

// startProducer starts the producer goroutine on an opened stream. The
// caller receives the chunks from full until a nil one, returning each
// slot to free once done with it.
func (w *poolTask) startProducer() {
	if w.full == nil {
		// Each channel holds at most every slot at once.
		w.full = make(chan []workload.Query, ringSlots)
		w.free = make(chan []workload.Query, ringSlots)
		for i := range ringSlots {
			w.free <- w.slot(i)
		}
	}
	go w.producer()
}

// producer fills the ring's free slots with the stream's chunks and
// hands each non-empty one over in order, then a nil chunk marking the
// end, and exits. It is the only goroutine touching the stream state
// (and the door buffer) until that nil is received.
func (w *poolTask) producer() {
	pprof.SetGoroutineLabels(generateLabels)
	for !w.drained() {
		buf := <-w.free
		chunk := w.fill(buf)
		if len(chunk) == 0 {
			w.free <- buf // cannot block: the slot came from free
			continue
		}
		w.full <- chunk
	}
	w.full <- nil
}

// run replays the task's admitted stream over its pool, chunk by chunk
// as fill produces it (on a producer goroutine when produce is set).
// Unbatched service is the MaxBatch <= 1 case of the one loop: such
// instances answer each arrival immediately; batching instances emit
// latencies when their batches dispatch (window expiry, a full batch,
// or the end-of-slice drain), bucketed into observation windows by
// each query's own arrival instant.
func (w *poolTask) run() {
	w.openStream()
	router := w.newRouter()
	rng := stats.NewRand(w.seed)
	for _, in := range w.insts {
		in.ResetSlice(w.sliceS)
	}
	if cap(w.comps) < 2*w.maxBatch {
		// One arrival can trigger at most an expiry dispatch of the
		// forming batch plus a full-batch dispatch including itself.
		w.comps = make([]Completion, 0, 2*w.maxBatch)
	}
	if w.produce {
		w.startProducer()
		for chunk := <-w.full; chunk != nil; chunk = <-w.full {
			w.route(chunk, router, rng)
			w.free <- chunk[:0]
		}
	} else {
		var buf []workload.Query
		if w.ring != nil {
			buf = w.slot(0)
		}
		for !w.drained() {
			w.route(w.fill(buf), router, rng)
		}
	}
	for _, in := range w.insts {
		if in.MaxBatch <= 1 {
			continue
		}
		comps := in.FlushPending(w.comps[:0])
		w.comps = comps[:0]
		w.record(in.ID, comps)
	}
}

// route replays one chunk of admitted queries. Pools mix batched and
// unbatched instances (each pair derives its own batch cap from the
// measured efficiency curve), so the loop branches per pick.
func (w *poolTask) route(chunk []workload.Query, router Router, rng *rand.Rand) {
	w.admitted += len(chunk)
	for _, q := range chunk {
		wi := stats.ClampInt(int(q.ArrivalS/w.windowW), 0, w.windows-1)
		remote := w.remoteFrac > 0 && cacheHit(w.remoteStream, q.ID, w.remoteFrac)
		sampled := w.traceOn && w.trace.Sampled(q.ID)
		if sampled {
			ev := w.trace.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
			ev.Value = float64(q.Size)
			ev.Aux = q.SparseScale
		}
		if w.cacheServe(q, wi, remote, sampled) {
			continue
		}
		if len(w.insts) == 0 {
			w.drop(q, wi, remote, sampled, -1)
			continue
		}
		var ev *telemetry.Event // the route event, for sampled queries
		if sampled {
			ev = w.trace.Emit(telemetry.KindRoute, q.ID, q.ArrivalS)
		}
		in := w.insts[router.PickTraced(w.insts, q.ArrivalS, rng, ev)]
		if ev != nil {
			ev.Instance = int32(in.ID)
		}
		if in.MaxBatch <= 1 {
			start, done, drop := in.arrive(q.ArrivalS, q.Size, q.SparseScale)
			if drop {
				w.drop(q, wi, remote, sampled, in.ID)
			} else {
				w.serve(wi, q.ID, in.ID, q.ArrivalS, start, done, 1, remote, sampled)
			}
			continue
		}
		comps, drop := in.ArriveBatched(q.ID, q.ArrivalS, q.Size, q.SparseScale, w.comps[:0])
		w.comps = comps[:0]
		if drop {
			w.drop(q, wi, remote, sampled, in.ID)
		} else if sampled {
			// The query joined a forming batch (its Start/End events
			// surface with the dispatch's completions); record its
			// 1-based position — a full batch dispatched immediately, so
			// an empty forming batch means it rode out at MaxBatch.
			pos := in.Pending()
			if pos == 0 {
				pos = in.MaxBatch
			}
			ev := w.trace.Emit(telemetry.KindBatch, q.ID, q.ArrivalS)
			ev.Instance = int32(in.ID)
			ev.Value = float64(pos)
		}
		w.record(in.ID, comps)
	}
}

// record serves a dispatch's completions (all from instance instID),
// each in the observation window of its own arrival instant. A
// completion's remote-origin verdict re-draws on its query ID — the
// same draw its arrival made — so deferred dispatch cannot change
// which queries pay RTT.
func (w *poolTask) record(instID int, comps []Completion) {
	for _, c := range comps {
		wi := stats.ClampInt(int(c.ArrivalS/w.windowW), 0, w.windows-1)
		remote := w.remoteFrac > 0 && cacheHit(w.remoteStream, c.ID, w.remoteFrac)
		w.serve(wi, c.ID, instID, c.ArrivalS, c.StartS, c.DoneS, c.Batch, remote, w.traceOn && w.trace.Sampled(c.ID))
	}
}

// buildTasks sizes interval idx's sampled slice and arms one replay
// task per model, in model-name order: each task owns the model's
// whole effective pool and builds its own query stream when it runs —
// generated (or recorded), then thinned by admission before routing.
// eff carries the interval's scenario traffic effects: query-size mix
// shifts rescale each generator's size distribution, and shed
// fractions thin the admitted stream (loads arrive already scaled by
// the caller; fleet effects are already baked into pools). A non-nil adj marks the inbound share of
// each model's load as remote-origin geo spill paying adj.rttS. No
// offered load yields no tasks.
func (e *Engine) buildTasks(idx int, loads map[string]float64, pools map[string][]*Instance, eff scenario.Effects, adj *geoAdjust) []*poolTask {
	ist := &e.run.ist
	names := make([]string, 0, len(loads))
	for m := range loads {
		names = append(names, m)
	}
	sort.Strings(names)
	e.run.models = names
	// Sum in sorted-name order: float addition is not associative, so a
	// map-range sum would make the slice budget (and everything seeded
	// off it) depend on iteration order once three models share a day.
	var totalLoad float64
	for _, m := range names {
		totalLoad += loads[m]
	}
	ist.OfferedQPS = totalLoad
	if totalLoad <= 0 {
		return nil
	}

	// Size the slice: full offered rate, bounded total queries. A
	// replayed trace's recorded slice is authoritative — the recording
	// run already sized it, and re-deriving would couple byte identity
	// to matching engine tuning.
	sliceS := e.Spec.Options.SliceS
	if budget := float64(e.Spec.Options.MaxQueriesPerInterval); budget > 0 && totalLoad*sliceS > budget {
		sliceS = budget / totalLoad
	}
	if e.TraceSrc != nil {
		if rec := e.TraceSrc.Slice(idx); rec > 0 {
			sliceS = rec
		}
	}
	windows := stats.ClampInt(int(sliceS/e.Spec.Options.WindowS), 2, 600)
	windowW := sliceS / float64(windows)
	ist.Windows = windows
	e.run.sliceS = sliceS

	tr := e.Tracer
	scr := &e.scratch
	for len(scr.tasks) < len(names) {
		scr.tasks = append(scr.tasks, &poolTask{})
	}
	tasks := scr.tasks[:len(names)]
	cacheLatS := e.Spec.Cache.latencyS()
	for mi, m := range names {
		t := tasks[mi]
		t.reset(windows)
		if t.ring == nil {
			t.ring = make([]workload.Query, ringSlots*chunkLen)
		}
		mh := stats.HashString(m)
		t.modelName = m
		t.model = e.models[m]
		t.insts = pools[m]
		t.newRouter = e.newRouter
		t.pending = &scr.pending
		// The <<8 is part of every recorded routing stream: changing it
		// re-rolls the golden replays.
		t.seed = stats.MixSeed(e.Spec.Options.Seed, int64(idx), int64(mi)<<8)
		t.windowW = windowW
		t.sliceS = sliceS
		t.maxBatch = max(e.Spec.Options.MaxBatch, 1)
		if e.cacheActive {
			t.cacheHR = e.cacheAdvance(m, eff)
		}
		t.cacheLatS = cacheLatS
		t.cacheStream = cacheStreamSeed(e.Spec.Options.Seed, idx, mh)
		if adj != nil && adj.inbound[m] > 0 && loads[m] > 0 {
			t.remoteFrac = math.Min(adj.inbound[m]/loads[m], 1)
			t.remoteRTTS = adj.rttS
			t.remoteStream = remoteStreamSeed(e.Spec.Options.Seed, idx, mh)
		}
		if tr != nil {
			t.trace.Arm(tr, idx, m, mh)
			t.door.Arm(tr, idx, m, mh)
			t.traceOn = true
		}
		// The task builds its own stream when it runs (fill), reading
		// the recorded arrivals when there are any: the shed thinning
		// writes the kept ones into the task's ring. Mix shifts are
		// skipped along with load scaling — both are already baked into
		// the recording.
		t.fromTrace = e.TraceSrc != nil
		if t.fromTrace {
			t.rec = e.TraceSrc.Queries(idx, m)
		}
		t.qps = loads[m]
		t.genSeed = stats.MixSeed(e.Spec.Options.Seed, 0x9e37+int64(idx), int64(mi))
		t.sizeScale = eff.Size(m)
		// Two shedding sources compose at the door: the scenario's
		// load-shedding drills and the engine's admission policy (which
		// conditions on what the previous interval observed). Independent
		// Bernoulli thinnings compose multiplicatively.
		frac := eff.Shed(m)
		if e.Admission != nil {
			prev := e.prevObs[m]
			sig := AdmissionSignal{
				Model:        m,
				SLATargetMS:  t.model.SLATargetMS,
				OfferedQPS:   loads[m],
				PrevP99MS:    prev.p99MS,
				PrevDropFrac: prev.dropFrac,
			}
			if e.gridTL != nil {
				sig.GridGPerKWh = e.gridTL.At(idx)
				sig.GridMeanGPerKWh = e.gridTL.MeanG()
				sig.DeferrableFrac = e.Spec.Grid.Deferrable()
			}
			af := e.Admission.ShedFrac(sig)
			af = math.Min(math.Max(af, 0), 0.95)
			frac = 1 - (1-frac)*(1-af)
		}
		t.shedFrac = frac
		t.shedSeed = stats.MixSeed(e.Spec.Options.Seed, 0x5ed0+int64(idx), int64(mi))
	}
	return tasks
}

// runInterval replays the prepared interval of every engine and
// finishes the engines in order. All their pool tasks share one set of
// min(GOMAXPROCS, tasks) worker goroutines; the calling goroutine
// finishes each engine as soon as that engine's own tasks have run,
// overlapping the replay of later engines' tasks. Each task owns its
// pool, its query stream and its seeded RNG streams, so the worker
// count and the dispatch order are scheduling choices only: results
// are the same on any host. Tasks are dispatched engine by engine,
// each engine's longest first by offered load (its tasks share one
// slice, so load orders them by query count), which keeps an engine's
// tail short when one model's stream dominates.
//
// A task offered more than the fair share Σqps / max(workers, 2)
// outlasts the others however they are dispatched, so when there is a
// second core its stream is generated on a producer goroutine a chunk
// ahead of its router, on a core the other tasks leave idle. A lone
// task always qualifies: its one worker leaves every other core idle.
// The chunks are the same either way, so this too is a scheduling
// choice only.
func runInterval(engines []*Engine) {
	var order []*poolTask
	var offered float64
	for _, e := range engines {
		start := len(order)
		order = append(order, e.run.tasks...)
		slices.SortFunc(order[start:], func(a, b *poolTask) int { return cmp.Compare(b.qps, a.qps) })
		e.scratch.pending.Add(len(e.run.tasks))
	}
	for _, t := range order {
		offered += t.qps
	}
	//lint:allow wallclock the worker count schedules independent tasks; it never reaches a result
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, len(order))
	share := offered / float64(max(workers, 2))
	for _, t := range order {
		t.produce = procs > 1 && !t.fromTrace && t.qps > share
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			pprof.SetGoroutineLabels(routeLabels)
			for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
				order[i].run()
				order[i].pending.Done()
				// Yield so a caller woken by this task finishes its
				// engine now, not once this worker runs out of tasks.
				runtime.Gosched()
			}
		}()
	}
	for _, e := range engines {
		e.scratch.pending.Wait()
		e.finishInterval()
	}
	wg.Wait()
}

// finishInterval completes the interval prepareInterval began once its
// tasks have run (runInterval calls it): drain the staged trace events in model-name order and
// flush the tracer, merge the tails, sweep energy, price carbon, publish
// the interval to the observers, hand the scaler its signal and latch
// the fleet-health signal for the next boundary.
func (e *Engine) finishInterval() {
	r := e.run
	ist := &r.ist
	var breached []bool
	// Profiles attribute the drain, merge and sweep to one stage. The
	// caller's goroutine is left unlabelled afterwards: its own labels
	// cannot be read back to restore.
	pprof.SetGoroutineLabels(mergeLabels)
	if len(r.tasks) > 0 {
		// Flushing per interval streams exports instead of accumulating
		// a day.
		if tr := e.Tracer; tr != nil {
			for _, t := range r.tasks {
				tr.Ingest(t.door.Events())
			}
			for _, t := range r.tasks {
				tr.Ingest(t.trace.Events())
			}
			tr.Flush()
		}
		breached = e.mergeTails(r.tasks)
	}
	e.sweepEnergy()
	pprof.SetGoroutineLabels(context.Background())
	if e.gridTL != nil {
		ist.GridGPerKWh = e.gridTL.At(ist.Index)
		ist.CarbonG = power.CarbonG(ist.EnergyKJ, ist.GridGPerKWh)
	}
	for _, o := range r.sinks {
		o.ObserveInterval(*ist)
	}

	r.earlyPending, r.extraR = false, 0
	if e.Scaler != nil {
		sig := ScalerSignal{Breached: breached, Utilization: e.util}
		if e.gridTL != nil {
			// The next interval's intensity plays the role of the
			// day-ahead forecast a grid operator publishes (At wraps at
			// the day boundary), judged against the day's mean.
			sig.NextGridGPerKWh, sig.GridMeanGPerKWh = e.gridTL.At(ist.Index+1), e.gridTL.MeanG()
		}
		r.earlyPending, r.extraR = e.Scaler.IntervalEnd(sig)
	}
	if !r.eff.SameFleetState(r.knownFleet) {
		// Health checks noticed servers dying or returning during
		// this interval: re-provision at the next boundary against
		// the new availability.
		r.knownFleet = r.eff
		r.earlyPending = true
	}
}

// mergeTails folds the tasks' latency windows into the interval's
// stats: per-model windowed p95s against each model's SLA target (and
// any drop) decide the window breach verdicts, per-model tails feed
// next interval's admission signal, and the aggregate distribution
// drives the interval percentiles. Every percentile is selected
// exactly, straight from the tasks' window buffers, read in place as
// segments. It returns the verdicts for the scaler signal, in the
// engine's scratch (valid until the next merge).
func (e *Engine) mergeTails(tasks []*poolTask) []bool {
	r := e.run
	ist := &r.ist
	scr := &e.scratch
	windows := ist.Windows
	for cap(scr.breached) < windows {
		scr.breached = append(scr.breached[:cap(scr.breached)], false)
	}
	breached := scr.breached[:windows]
	for i := range breached {
		breached[i] = false
	}
	// One index serves every window, model and interval tail.
	scr.segs = scr.segs[:0]
	for _, t := range tasks {
		scr.segs = append(scr.segs, t.winLatMS...)
	}
	scr.sel.Index(scr.segs)
	seg := 0 // the current task's first window in scr.segs
	for _, t := range tasks {
		m := t.modelName
		var tail [2]float64
		for w, win := range t.winLatMS {
			if t.winDrops[w] > 0 {
				breached[w] = true
			} else if len(win) > 0 {
				scr.sel.Query(seg+w, seg+w+1, []float64{95}, tail[:1])
				if tail[0] > t.model.SLATargetMS {
					breached[w] = true
				}
			}
		}
		scr.sel.Query(seg, seg+len(t.winLatMS), []float64{95, 99}, tail[:])
		ist.ModelP95MS[m], ist.ModelP99MS[m] = tail[0], tail[1]
		seg += len(t.winLatMS)
		queries := t.admitted
		ist.Shed += t.shed
		ist.Queries += queries
		ist.Drops += t.dropped
		ist.CacheHits += t.hits
		ist.SpillInServed += t.remoteServed
		ist.SpillInDropped += t.remoteDropped
		if e.cacheActive {
			e.cacheFill(m, queries-t.dropped-t.hits, t.hits, queries, r.stepS/r.sliceS)
		}
		// Record what admission policies may condition on next interval.
		obs := modelObs{p99MS: ist.ModelP99MS[m]}
		if queries > 0 {
			obs.dropFrac = float64(t.dropped) / float64(queries)
		}
		e.prevObs[m] = obs
	}
	var pct [3]float64
	scr.sel.Query(0, len(scr.segs), []float64{50, 95, 99}, pct[:])
	ist.P50MS, ist.P95MS, ist.P99MS = pct[0], pct[1], pct[2]
	if e.cacheActive {
		if ist.Queries > 0 {
			ist.CacheHitRate = float64(ist.CacheHits) / float64(ist.Queries)
		}
		ist.CacheWarmth = make(map[string]float64, len(tasks))
		for _, t := range tasks {
			ist.CacheWarmth[t.modelName] = e.cacheWarmth[t.modelName]
		}
	}
	for _, b := range breached {
		if b {
			ist.WindowsBreached++
		}
	}
	ist.ViolationMin = r.stepS / 60 * float64(ist.WindowsBreached) / float64(windows)
	return breached
}

// sweepEnergy prices the interval's energy: every live instance of the
// effective pools, in model-name order, idles for the whole interval
// and, when the interval replayed load, adds utilization-proportional
// dynamic power up to its profiled provisioned budget. The same sweep
// measures the fleet's mean channel utilization for the scaler signal;
// an interval without load keeps the last loaded interval's.
func (e *Engine) sweepEnergy() {
	r := e.run
	loaded := len(r.tasks) > 0
	var watts, utilSum float64
	nInsts := 0
	for _, m := range r.models {
		for _, in := range r.pools[m] {
			w := e.typeWatts(in.Type).idle
			if loaded {
				peak := w
				if entry, ok := e.Table.Get(in.Type, in.Model); ok {
					peak = math.Max(entry.PowerW, w)
				}
				u := in.Utilization(r.sliceS)
				w += (peak - w) * u
				utilSum += u
				nInsts++
			}
			watts += e.cappedWatts(in.Type, w)
		}
	}
	r.ist.EnergyKJ = watts * r.stepS / 1e3
	if nInsts > 0 {
		e.util = utilSum / float64(nInsts)
	}
}

// cappedWatts clamps a server's draw to its type's powercap share. The
// powercap is physical: whatever the workload wants, the server never
// draws past its share of the budget.
func (e *Engine) cappedWatts(typ string, w float64) float64 {
	if cw := e.run.health[typ].capW; cw > 0 && w > cw {
		return cw
	}
	return w
}

// SliceResult is ReplaySlice's accounting. LatS holds one latency per
// served query — in arrival order for unbatched pools, in dispatch
// order for batching pools (a batch emits its members' latencies when
// it launches).
type SliceResult struct {
	LatS    []float64
	Served  int
	Dropped int
}

// ReplaySlice routes one query stream (in arrival order) over the
// given instances with a fresh router of the given routerTable name:
// one pool task of the replay loop RunDay runs, exported for tests and
// tools that want router behavior without provisioning. Batching
// instances (EnableBatching) are served through the dynamic-batching
// path, including the end-of-slice drain of forming batches. A router
// name missing from the table panics: callers pass compile-time policy
// names, never user input (route user input through ParseRouter).
func ReplaySlice(routerName string, insts []*Instance, queries []workload.Query, seed int64) SliceResult {
	newRouter, err := routerTable.lookup(routerName)
	if err != nil {
		panic(err)
	}
	// One window spanning the slice, and sliceS 0: every instance
	// resets with an unclipped busy horizon.
	t := &poolTask{insts: insts, fromTrace: true, newRouter: newRouter, seed: seed,
		windowW: math.Inf(1), maxBatch: 1}
	t.reset(1)
	t.rec = queries
	t.run()
	lat := t.winLatMS[0]
	for i := range lat {
		lat[i] /= 1e3
	}
	return SliceResult{LatS: lat, Served: len(queries) - t.dropped, Dropped: t.dropped}
}
