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

	sc scenario.Scenario
	// geo routes load between the regions; nil with one region.
	geo *geoStep
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
// its one engine steps the same day loop as NewEngine + RunDay on the
// same spec, so its result is byte-identical, region labels attached.
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

	me := &MultiEngine{Spec: nspec, sc: sc}
	multi := len(nspec.Regions) > 1
	for _, r := range nspec.Regions {
		rs := nspec
		// The RTT matrix lives in the geo step, not in a region engine.
		rs.Regions = []RegionSpec{{Name: r.Name, Fleet: r.Fleet, PhaseH: r.PhaseH}}
		rs.Geo = ""
		rs.Grid = nspec.Grid.ForRegion(r.Name)
		rs.Scenario = ""
		if multi {
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
	if multi {
		me.geo = newGeoStep(geo, nspec.Regions)
	}
	return me, nil
}

// Workloads synthesizes each region's phase-shifted diurnal day, in
// region order.
func (me *MultiEngine) Workloads() [][]cluster.Workload {
	out := make([][]cluster.Workload, len(me.Engines))
	for i, eng := range me.Engines {
		out[i] = eng.Workloads()
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
	days, err := runDays(me.Engines, wss, me.sc, me.geo)
	for r := range days {
		days[r].Region, days[r].Geo = me.Spec.Regions[r].Name, me.Spec.Geo
	}
	if err != nil {
		return DayResult{Geo: me.Spec.Geo, Regions: days}, err
	}
	global := MergeDays(days...)
	global.Geo, global.Regions = me.Spec.Geo, days
	return global, nil
}

// geoStep is the day loop's routing between two or more regions, its
// buffers reused from interval to interval.
type geoStep struct {
	policy  GeoPolicy
	sig     GeoSignal
	offered []map[string]float64
	adjs    []geoAdjust
}

// newGeoStep resolves the RTT matrix once: explicit entry, symmetric
// fallback, then DefaultRTTMS; zero on the diagonal.
func newGeoStep(policy GeoPolicy, regions []RegionSpec) *geoStep {
	n := len(regions)
	g := &geoStep{
		policy:  policy,
		sig:     GeoSignal{Regions: make([]RegionSignal, n), RTTS: make([][]float64, n)},
		offered: make([]map[string]float64, n),
		adjs:    make([]geoAdjust, n),
	}
	for i := range regions {
		g.sig.Regions[i].Name = regions[i].Name
		g.sig.RTTS[i] = make([]float64, n)
		for j := range regions {
			if i == j {
				continue
			}
			ms := DefaultRTTMS
			if v, ok := regions[i].RTTMS[regions[j].Name]; ok {
				ms = v
			} else if v, ok := regions[j].RTTMS[regions[i].Name]; ok {
				ms = v
			}
			g.sig.RTTS[i][j] = ms / 1e3
		}
	}
	return g
}

// route snapshots every region at interval i's boundary (offered home
// load, optimistic capacity of the fleet as scenario effects leave it,
// blackout flag) and turns the geo policy's answer into adjs.
func (g *geoStep) route(i int, engines []*Engine) {
	g.sig.Interval = i
	for r, eng := range engines {
		eff := eng.run.tl.At(i)
		g.offered[r] = eng.offeredLoads(i, eff)
		reg := &g.sig.Regions[r]
		reg.OfferedQPS = sumSorted(g.offered[r])
		reg.CapacityQPS = eng.capacityQPS(eff)
		reg.Blackout = eff.Blackout
	}
	g.buildAdjusts(g.policy.Route(g.sig))
}

// adjust returns region r's outcome of the routed interval, nil when
// there is no geo step or routing left the region untouched: the
// region then replays exactly as a lone engine.
func (g *geoStep) adjust(r int) *geoAdjust {
	if g == nil {
		return nil
	}
	if a := &g.adjs[r]; a.keep != 1 || len(a.inbound) > 0 {
		return a
	}
	return nil
}

// sumSorted adds up a per-model load map in model-name order: float
// addition is not associative, so a sum in map order would differ
// from run to run once three or more models contribute.
func sumSorted(loads map[string]float64) float64 {
	ms := make([]string, 0, len(loads))
	for m := range loads {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	var total float64
	for _, m := range ms {
		total += loads[m]
	}
	return total
}

// buildAdjusts turns a geo policy's routing matrix into per-region
// load adjustments: clamp each source row to a sane simplex (entries
// in [0, 1], row total at most 1, nothing routed to self), then
// accumulate what each destination receives per model and the
// inbound-weighted mean RTT its remote queries pay.
func (g *geoStep) buildAdjusts(spill [][]float64) {
	n := len(g.adjs)
	regs := g.sig.Regions
	for r := range g.adjs {
		g.adjs[r] = geoAdjust{keep: 1}
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
			g.adjs[src].outQPS += srcQPS
			a := &g.adjs[dst]
			if a.inbound == nil {
				a.inbound = make(map[string]float64)
			}
			for m, l := range g.offered[src] {
				a.inbound[m] += l * f
			}
			// rttS accumulates as a weighted sum here; normalized below.
			a.rttS += g.sig.RTTS[src][dst] * srcQPS
		}
		g.adjs[src].keep = 1 - rowTotal
	}
	for r := range g.adjs {
		a := &g.adjs[r]
		if in := sumSorted(a.inbound); in > 0 {
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
