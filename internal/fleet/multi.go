package fleet

import (
	"fmt"
	"math"
	"sort"

	"hercules/internal/cluster"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/stats"
)

// MultiEngine replays a multi-region day: one Engine per RegionSpec,
// stepped in lockstep so the spec's geo policy can move load between
// regions at every interval boundary. Each region synthesizes its own
// phase-shifted diurnal population and replays it unchanged, its model
// pools running concurrently with every other region's; the geo layer
// only adjusts the offered loads going in (spilled-out traffic leaves,
// spilled-in traffic arrives carrying its inter-region RTT) and reads
// the interval signals coming out.
type MultiEngine struct {
	// Spec is the normalized multi-region spec the engines were built
	// from.
	Spec Spec
	// Engines holds one fully assembled Engine per Spec.Regions entry,
	// in order. Exported for tests and tools that decorate individual
	// regions (observers, tracers) before RunDay.
	Engines []*Engine
	// Geo is the instantiated geo-routing policy.
	Geo GeoPolicy

	sc   scenario.Scenario
	rttS [][]float64
}

// NewMultiEngine assembles a multi-region replay from a Spec with
// regions. Every region resolves through NewEngine with its own fleet
// and a region-salted seed (regions draw independent traffic noise);
// the scenario compiles per region through scenario.CompileRegions at
// RunDay, so blackout and region-scoped events land only where they
// should. Options apply to every region's engine — per-region
// decoration goes through MultiEngine.Engines. Without WithTable every
// region replays against one CalibrateSpec table.
//
// A single-region spec (including a normalized legacy spec) is valid:
// RunDay then delegates to the one engine and its result is
// byte-identical to NewEngine + RunDay on the same spec.
func NewMultiEngine(spec Spec, opts ...Option) (*MultiEngine, error) {
	nspec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if nspec.Trace != "" {
		return nil, fmt.Errorf("fleet: recorded traces replay single-region (trace %q); drop the regions or the trace", nspec.Trace)
	}
	geo, err := geoTable.build(nspec.Geo)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(nspec.Scenario)
	if err != nil {
		return nil, err
	}
	if nspec.Grid.Enabled() {
		// Validate against the full region list here: each engine only
		// sees its own region's (ForRegion-filtered) grid, so an
		// override naming a region that exists nowhere must be caught
		// before the split.
		if err := nspec.Grid.Validate(); err != nil {
			return nil, err
		}
		known := make([]string, len(nspec.Regions))
		for i, r := range nspec.Regions {
			known[i] = r.Name
		}
		if err := nspec.Grid.CheckRegions(known); err != nil {
			return nil, err
		}
	}

	// Calibrate once for every region: a region engine calibrating for
	// itself would measure the same pairs again at its salted seed.
	if cfg := configure(opts); cfg.table == nil {
		var table *profiler.Table
		if cfg.fleet != nil {
			table, err = calibrateModels(nspec.Models, cfg.fleet.Types, nspec.Options.Seed)
		} else {
			table, err = CalibrateSpec(nspec)
		}
		if err != nil {
			return nil, err
		}
		opts = append(opts[:len(opts):len(opts)], WithTable(table))
	}

	me := &MultiEngine{Spec: nspec, Geo: geo, sc: sc}
	multi := len(nspec.Regions) > 1
	for _, r := range nspec.Regions {
		rs := nspec
		rs.Fleet = r.Fleet
		rs.Regions = []RegionSpec{r}
		rs.Geo = ""
		rs.Grid = nspec.Grid.ForRegion(r.Name)
		if multi {
			// The region engines replay the scenario's per-region
			// timelines (CompileRegions), installed by RunDay — not the
			// whole scenario each.
			rs.Scenario = ""
			// Salt each region's seed: two regions are different
			// populations, not mirrored replicas of one noise stream.
			rs.Options.Seed = stats.MixSeed(nspec.Options.Seed, 0x9e0, stats.HashString(r.Name))
		}
		eng, err := NewEngine(rs, opts...)
		if err != nil {
			return nil, fmt.Errorf("fleet: region %q: %w", r.Name, err)
		}
		if eng.Tracer != nil {
			eng.Tracer.SetRegion(r.Name)
		}
		me.Engines = append(me.Engines, eng)
	}

	// Resolve the RTT matrix once: explicit entry, symmetric fallback,
	// then DefaultRTTMS; zero on the diagonal.
	n := len(nspec.Regions)
	me.rttS = make([][]float64, n)
	for i := range me.rttS {
		me.rttS[i] = make([]float64, n)
		for j := range me.rttS[i] {
			if i == j {
				continue
			}
			ms := DefaultRTTMS
			if v, ok := nspec.Regions[i].RTTMS[nspec.Regions[j].Name]; ok {
				ms = v
			} else if v, ok := nspec.Regions[j].RTTMS[nspec.Regions[i].Name]; ok {
				ms = v
			}
			me.rttS[i][j] = ms / 1e3
		}
	}
	return me, nil
}

// Workloads synthesizes each region's phase-shifted diurnal day, in
// region order.
func (me *MultiEngine) Workloads() [][]cluster.Workload {
	out := make([][]cluster.Workload, len(me.Engines))
	for i, eng := range me.Engines {
		out[i] = eng.workloadsAt(me.Spec.Regions[i].PhaseH)
	}
	return out
}

// RunDay replays every region's day in lockstep and returns the
// global merge (MergeDays), with the per-region results in
// DayResult.Regions. wss is one workload slice per region, in region
// order (Workloads' shape); the replay spans the shortest region's
// trace.
func (me *MultiEngine) RunDay(wss [][]cluster.Workload) (DayResult, error) {
	if len(wss) != len(me.Engines) {
		return DayResult{}, fmt.Errorf("fleet: %d workload sets for %d regions", len(wss), len(me.Engines))
	}
	if len(me.Engines) == 1 {
		// Single region: delegate outright — byte-identical to the
		// engine running alone, just with the region labels attached.
		res, err := me.Engines[0].RunDay(wss[0])
		res.Region = me.Spec.Regions[0].Name
		res.Geo = me.Spec.Geo
		if err != nil {
			return res, err
		}
		global := MergeDays(res)
		global.Geo = me.Spec.Geo
		global.Regions = []DayResult{res}
		return global, nil
	}

	names := make([]string, len(me.Spec.Regions))
	for i, r := range me.Spec.Regions {
		names[i] = r.Name
	}
	fleetCounts := make(map[string]map[string]int, len(names))
	for i, eng := range me.Engines {
		fleetCounts[names[i]] = eng.fleetCounts()
	}

	// beginDay every region before stepping any: each engine validates
	// its workloads.
	fail := func(i int, err error) (DayResult, error) {
		return me.Engines[i].run.res, fmt.Errorf("fleet: region %q: %w", names[i], err)
	}
	steps := 0
	for i, eng := range me.Engines {
		if err := eng.beginDay(wss[i]); err != nil {
			return fail(i, err)
		}
		if steps == 0 || eng.run.steps < steps {
			steps = eng.run.steps
		}
	}
	// Compile the scenario per region against the common horizon and
	// install the timelines (blackouts expand to victim kills plus
	// survivor spikes here).
	tls, err := scenario.CompileRegions(me.sc, steps, me.Engines[0].run.stepS, names, fleetCounts)
	if err != nil {
		return fail(0, err)
	}
	for i, eng := range me.Engines {
		eng.Timeline = tls[names[i]]
		eng.run.steps = steps
		if tls[names[i]].Name != "" {
			eng.run.res.Scenario = tls[names[i]].Name
		}
	}

	sig := GeoSignal{RTTS: me.rttS, Regions: make([]RegionSignal, len(me.Engines))}
	offered := make([]map[string]float64, len(me.Engines))
	adjs := make([]geoAdjust, len(me.Engines))
	for i := 0; i < steps; i++ {
		// Snapshot each region at the boundary: offered home load,
		// optimistic capacity of the fleet as scenario effects leave it,
		// and the blackout flag.
		sig.Interval = i
		for r, eng := range me.Engines {
			eff := eng.Timeline.At(i)
			offered[r] = eng.offeredLoads(i, eff)
			var total float64
			ms := make([]string, 0, len(offered[r]))
			for m := range offered[r] {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			for _, m := range ms {
				total += offered[r][m]
			}
			sig.Regions[r] = RegionSignal{
				Name:        names[r],
				OfferedQPS:  total,
				CapacityQPS: eng.capacityQPS(eff),
				Blackout:    eff.Blackout,
			}
		}
		spill := me.Geo.Route(sig)
		me.buildAdjusts(spill, offered, sig.Regions, adjs)
		for r, eng := range me.Engines {
			adj := &adjs[r]
			if adj.keep == 1 && len(adj.inbound) == 0 {
				adj = nil // untouched interval: replay exactly as single-region
			}
			eng.prepareInterval(i, adj)
		}
		// Every region's pools replay on one set of workers; finishing
		// in region order keeps observers and shared trace sinks
		// deterministic.
		runInterval(me.Engines)
	}

	days := make([]DayResult, len(me.Engines))
	for r, eng := range me.Engines {
		days[r] = eng.endDay()
		days[r].Region = names[r]
		days[r].Geo = me.Spec.Geo
	}
	global := MergeDays(days...)
	global.Geo = me.Spec.Geo
	global.Regions = days
	return global, nil
}

// buildAdjusts turns a geo policy's routing matrix into per-region
// load adjustments: clamp each source row to a sane simplex (entries
// in [0, 1], row total at most 1, nothing routed to self), then
// accumulate what each destination receives per model and the
// inbound-weighted mean RTT its remote queries pay.
func (me *MultiEngine) buildAdjusts(spill [][]float64, offered []map[string]float64, regs []RegionSignal, adjs []geoAdjust) {
	n := len(me.Engines)
	for r := range adjs {
		adjs[r] = geoAdjust{keep: 1}
	}
	if len(spill) != n {
		return // malformed policy output: route nothing
	}
	for src := 0; src < n; src++ {
		row := spill[src]
		if len(row) != n || regs[src].OfferedQPS <= 0 {
			continue
		}
		rowTotal := 0.0
		for dst := 0; dst < n; dst++ {
			f := row[dst]
			if dst == src || f <= 0 {
				continue
			}
			f = math.Min(f, 1-rowTotal)
			if f <= 0 {
				continue
			}
			rowTotal += f
			srcQPS := regs[src].OfferedQPS * f
			adjs[src].outQPS += srcQPS
			dst := dst
			a := &adjs[dst]
			if a.inbound == nil {
				a.inbound = make(map[string]float64)
			}
			for m, l := range offered[src] {
				a.inbound[m] += l * f
			}
			// rttS accumulates as a weighted sum here; normalized below.
			a.rttS += me.rttS[src][dst] * srcQPS
		}
		adjs[src].keep = 1 - rowTotal
	}
	for r := range adjs {
		a := &adjs[r]
		var in float64
		for _, l := range a.inbound {
			in += l
		}
		if in > 0 {
			a.rttS /= in
		} else {
			a.rttS = 0
		}
	}
}

// capacityQPS estimates the fleet's best-case serving capacity under
// the interval's scenario effects: every live server of each type at
// its best calibrated per-model QPS, derated as the scenario derates
// it. Optimistic by construction (no queueing, no mix) — the spill
// policy's trigger and headroom margins are what absorb the gap.
func (e *Engine) capacityQPS(eff scenario.Effects) float64 {
	health := e.fleetHealth(eff)
	types := make([]string, 0, len(health))
	for t := range health {
		types = append(types, t)
	}
	sort.Strings(types)
	var total float64
	for _, t := range types {
		// Powercapped servers serve slower; the spill policy sees the
		// throttled capacity and can route around a capped region
		// exactly as it routes around a derated one.
		h := health[t]
		if h.alive <= 0 {
			continue
		}
		best := 0.0
		for _, m := range e.Spec.Models {
			if entry, ok := e.Table.Get(t, m); ok && entry.QPS > 0 {
				best = math.Max(best, entry.QPS*h.speed)
			}
		}
		total += best * float64(h.alive)
	}
	return total
}
