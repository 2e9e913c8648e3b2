package main

import (
	"crypto/sha256"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path"
	"runtime"
	"sort"
	"strings"
	"time"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/telemetry"
)

//go:embed workloads/*.json
var specFiles embed.FS

// workloadNames lists the embedded workload specs, sorted.
func workloadNames() []string {
	entries, _ := specFiles.ReadDir("workloads") // embedded at build time; cannot fail
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// loadSpec decodes the named workload spec and stamps the seed into
// options.seed. Decoding is lenient — unknown fields are ignored — so a
// spec keeps loading when the engine drops an option it names.
func loadSpec(name string, seed int64) (fleet.Spec, error) {
	var spec fleet.Spec
	data, err := specFiles.ReadFile(path.Join("workloads", name+".json"))
	if err != nil {
		return spec, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("workload %s: %w", name, err)
	}
	spec.Options.Seed = seed
	return spec, nil
}

// calibrate builds the serving table for every (model, server type)
// pair the spec's fleets field.
func calibrate(spec fleet.Spec) (*profiler.Table, error) {
	models := make([]*model.Model, 0, len(spec.Models))
	for _, name := range spec.Models {
		m, err := model.ByName(name, model.Prod)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	fleets := []string{spec.Fleet}
	for _, r := range spec.Regions {
		if r.Fleet != "" {
			fleets = append(fleets, r.Fleet)
		}
	}
	var types []hw.Server
	seen := make(map[string]bool)
	for _, name := range fleets {
		fl, err := hw.NamedFleet(name)
		if err != nil {
			return nil, err
		}
		for _, srv := range fl.Types {
			if !seen[srv.Type] {
				seen[srv.Type] = true
				types = append(types, srv)
			}
		}
	}
	return fleet.CalibrateTable(models, types, spec.Options.Seed)
}

// day is one replay-ready engine — NewEngine for a single-region spec,
// NewMultiEngine for a regional one — with its day synthesized.
type day struct {
	run func() (fleet.DayResult, error)
	// ws is the first region's workloads (the probes' inputs).
	ws []cluster.Workload
	// tracers are the engines' per-query tracers, each exporting to an
	// NDJSON writer over io.Discard.
	tracers []*telemetry.Tracer
}

func newDay(spec fleet.Spec, table *profiler.Table, obs fleet.Observer, extra ...fleet.Option) (*day, error) {
	opts := append([]fleet.Option{fleet.WithTable(table), fleet.WithObserver(obs)}, extra...)
	d := &day{}
	var engines []*fleet.Engine
	if len(spec.Regions) == 0 {
		eng, err := fleet.NewEngine(spec, opts...)
		if err != nil {
			return nil, err
		}
		ws := eng.Workloads()
		d.run = func() (fleet.DayResult, error) { return eng.RunDay(ws) }
		d.ws = ws
		engines = []*fleet.Engine{eng}
	} else {
		me, err := fleet.NewMultiEngine(spec, opts...)
		if err != nil {
			return nil, err
		}
		wss := me.Workloads()
		d.run = func() (fleet.DayResult, error) { return me.RunDay(wss) }
		d.ws = wss[0]
		engines = me.Engines
	}
	for _, eng := range engines {
		if eng.Tracer != nil {
			eng.Tracer.AddSink(telemetry.NewNDJSONWriter(io.Discard))
			d.tracers = append(d.tracers, eng.Tracer)
		}
	}
	return d, nil
}

// intervalClock is the replays' timing observer: one monotonic clock
// read per interval callback, appended to a buffer sized before the
// replay starts. It never keeps the IntervalStats.
type intervalClock struct {
	origin time.Time
	marks  []time.Duration
}

func (c *intervalClock) ObserveInterval(fleet.IntervalStats) {
	c.marks = append(c.marks, time.Since(c.origin))
}

// replayRun is one timed replay and what the benchmark derives from it
// outside the timed window.
type replayRun struct {
	wall time.Duration
	// gaps are the wall times between consecutive interval callbacks,
	// the first measured from the replay's start.
	gaps    []time.Duration
	res     fleet.DayResult
	hash    [sha256.Size]byte
	export  time.Duration
	alloc   uint64 // heap bytes allocated during the replay
	mallocs uint64 // heap objects allocated during the replay
	events  uint64 // trace events exported
	// heldMB is the memory the Go runtime holds from the OS when the
	// replay ends (MemStats.Sys - HeapReleased): its resident footprint,
	// since the runtime returns freed pages only lazily.
	heldMB float64
}

// replay runs d once with the clock observer armed for n callbacks,
// then exports the result as JSON and hashes it. With spans it records
// the replay, its intervals and the export.
func replay(d *day, clock *intervalClock, n int, spans *spanLog) (replayRun, error) {
	var r replayRun
	if cap(clock.marks) < n {
		clock.marks = make([]time.Duration, 0, n)
	}
	clock.marks = clock.marks[:0]
	runtime.GC() // collect earlier replays' garbage off this replay's clock
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clock.origin = time.Now()
	res, err := d.run()
	r.wall = time.Since(clock.origin)
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, err
	}
	for _, tr := range d.tracers {
		if err := tr.Close(); err != nil {
			return r, fmt.Errorf("trace export: %w", err)
		}
		r.events += tr.Written()
	}
	r.res = res
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.heldMB = float64(after.Sys-after.HeapReleased) / (1 << 20)
	r.gaps = make([]time.Duration, len(clock.marks))
	prev := time.Duration(0)
	for i, m := range clock.marks {
		r.gaps[i], prev = m-prev, m
	}
	exportStart := time.Now()
	data, err := json.Marshal(res)
	r.export = time.Since(exportStart)
	if err != nil {
		return r, fmt.Errorf("export: %w", err)
	}
	r.hash = sha256.Sum256(data)
	if spans != nil {
		id := spans.add("replay", 0, clock.origin, clock.origin.Add(r.wall))
		for k, m := range clock.marks {
			spans.add("interval", id, clock.origin.Add(m-r.gaps[k]), clock.origin.Add(m))
		}
		spans.add("export", 0, exportStart, exportStart.Add(r.export))
	}
	return r, nil
}

// intervalSteps returns the interval stats in observer-callback order:
// a single-region day's steps, or a regional day's steps interleaved
// region by region within each interval (the lockstep order).
func intervalSteps(res fleet.DayResult) []fleet.IntervalStats {
	if len(res.Regions) == 0 {
		return res.Steps
	}
	var out []fleet.IntervalStats
	for i := 0; ; i++ {
		more := false
		for _, r := range res.Regions {
			if i < len(r.Steps) {
				out = append(out, r.Steps[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// checkRun verifies a replay's result against the accounting
// identities and the run's reference export, returning every problem.
func checkRun(r replayRun, ref [sha256.Size]byte) []string {
	var bad []string
	if r.hash != ref {
		bad = append(bad, "exported DayResult differs from the run's first replay")
	}
	days := []fleet.DayResult{r.res}
	if len(r.res.Regions) > 0 {
		days = r.res.Regions
		bad = append(bad, checkMerge(r.res)...)
	}
	for _, d := range days {
		bad = append(bad, checkSteps(d)...)
	}
	if want := len(intervalSteps(r.res)); len(r.gaps) != want {
		bad = append(bad, fmt.Sprintf("observer saw %d intervals, result has %d", len(r.gaps), want))
	}
	return bad
}

// checkSteps checks one day's per-interval accounting against its
// totals.
func checkSteps(d fleet.DayResult) []string {
	var bad []string
	var queries, drops, shed int
	for _, st := range d.Steps {
		if st.Queries < st.Drops+st.CacheHits {
			bad = append(bad, fmt.Sprintf("%s interval %d: %d queries < %d drops + %d cache hits",
				d.Region, st.Index, st.Queries, st.Drops, st.CacheHits))
		}
		queries += st.Queries
		drops += st.Drops
		shed += st.Shed
	}
	if queries != d.TotalQueries || drops != d.TotalDrops || shed != d.TotalShed {
		bad = append(bad, fmt.Sprintf("%s intervals sum to %d/%d/%d queries/drops/shed, totals say %d/%d/%d",
			d.Region, queries, drops, shed, d.TotalQueries, d.TotalDrops, d.TotalShed))
	}
	return bad
}

// checkMerge checks that a regional day's global totals are the sums
// of its per-region results.
func checkMerge(g fleet.DayResult) []string {
	var sum fleet.DayResult
	for _, r := range g.Regions {
		sum.TotalQueries += r.TotalQueries
		sum.TotalDrops += r.TotalDrops
		sum.TotalShed += r.TotalShed
		sum.TotalCacheHits += r.TotalCacheHits
		sum.SpillInServed += r.SpillInServed
		sum.SpillInDropped += r.SpillInDropped
		sum.Reprovisions += r.Reprovisions
		sum.EarlyReprovisions += r.EarlyReprovisions
		sum.AutoscaleEvents += r.AutoscaleEvents
		sum.EnergyKJ += r.EnergyKJ
		sum.TotalCarbonG += r.TotalCarbonG
	}
	counts := []struct {
		name        string
		sum, global int
	}{
		{"queries", sum.TotalQueries, g.TotalQueries},
		{"drops", sum.TotalDrops, g.TotalDrops},
		{"shed", sum.TotalShed, g.TotalShed},
		{"cache hits", sum.TotalCacheHits, g.TotalCacheHits},
		{"spill-in served", sum.SpillInServed, g.SpillInServed},
		{"spill-in dropped", sum.SpillInDropped, g.SpillInDropped},
		{"reprovisions", sum.Reprovisions, g.Reprovisions},
		{"early reprovisions", sum.EarlyReprovisions, g.EarlyReprovisions},
		{"autoscale events", sum.AutoscaleEvents, g.AutoscaleEvents},
	}
	var bad []string
	for _, c := range counts {
		if c.sum != c.global {
			bad = append(bad, fmt.Sprintf("regions sum to %d %s, global says %d", c.sum, c.name, c.global))
		}
	}
	if !sameSum(sum.EnergyKJ, g.EnergyKJ) || !sameSum(sum.TotalCarbonG, g.TotalCarbonG) {
		bad = append(bad, fmt.Sprintf("regions sum to %g kJ / %g gCO2, global says %g / %g",
			sum.EnergyKJ, sum.TotalCarbonG, g.EnergyKJ, g.TotalCarbonG))
	}
	return bad
}

// sameSum reports whether two float sums agree up to reassociation.
func sameSum(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// outputChecks are the day's exact counts, printed as checks: they
// repeat bit for bit across a run's replays (the hash check enforces
// it) and are never compared across commits.
func outputChecks(r replayRun) [][2]any {
	res := r.res
	return [][2]any{
		{"sim.queries", res.TotalQueries},
		{"sim.drop_frac", res.DropFrac},
		{"sim.shed", res.TotalShed},
		{"sim.spill_in_served", res.SpillInServed},
		{"sim.reprovisions", res.Reprovisions},
		{"sim.early_reprovisions", res.EarlyReprovisions},
		{"sim.autoscale_events", res.AutoscaleEvents},
		{"sim.sla_violation_min", res.SLAViolationMin},
		{"sim.energy_mj", res.EnergyKJ / 1e3},
		{"sim.carbon_kg", res.TotalCarbonG / 1e3},
		{"telemetry.events", r.events},
	}
}
