package fleet

import (
	"math"

	"hercules/internal/telemetry"
)

// Observer receives each interval's finalized IntervalStats as the
// replay produces them — the streaming counterpart of DayResult, which
// is itself just an aggregation built on this hook. Engines call every
// observer in registration order, synchronously, from the replay
// goroutine; an observer that must not block the replay should buffer
// internally. The CLI's live NDJSON output and the DayResult
// aggregation ride the same hook, so the two can never disagree.
type Observer interface {
	ObserveInterval(ist IntervalStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ist IntervalStats)

// ObserveInterval implements Observer.
func (f ObserverFunc) ObserveInterval(ist IntervalStats) { f(ist) }

// NewMetricsObserver folds the interval stream into a telemetry
// metrics registry: counters for cumulative totals (queries, drops,
// shed, breached windows), gauges for the latest control-plane state
// (offered load, fleet size, provisioned power), and sketch-backed
// histograms over the per-interval tail latencies — the
// metrics-snapshot face of the same stream the NDJSON observer and the
// DayResult aggregation consume. Handles are resolved once here, so
// the per-interval update never touches the registry's maps.
func NewMetricsObserver(reg *telemetry.Registry) Observer {
	return NewRegionMetricsObserver(reg, "")
}

// NewRegionMetricsObserver is NewMetricsObserver with every metric
// name suffixed by a {region="..."} label, so the regions of a
// multi-region replay share one registry without colliding. An empty
// region is the unlabelled single-region namespace.
func NewRegionMetricsObserver(reg *telemetry.Registry, region string) Observer {
	name := func(base string) string {
		if region == "" {
			return base
		}
		return base + `{region="` + region + `"}`
	}
	intervals := reg.Counter(name("fleet_intervals_total"))
	queries := reg.Counter(name("fleet_queries_total"))
	drops := reg.Counter(name("fleet_drops_total"))
	shed := reg.Counter(name("fleet_shed_total"))
	hits := reg.Counter(name("fleet_cache_hits_total"))
	breached := reg.Counter(name("fleet_windows_breached_total"))
	offered := reg.Gauge(name("fleet_offered_qps"))
	servers := reg.Gauge(name("fleet_active_servers"))
	kw := reg.Gauge(name("fleet_provisioned_kw"))
	carbonMG := reg.Counter(name("fleet_carbon_mg_total"))
	intensity := reg.Gauge(name("fleet_grid_g_per_kwh"))
	p50 := reg.Histogram(name("fleet_interval_p50_ms"))
	p95 := reg.Histogram(name("fleet_interval_p95_ms"))
	p99 := reg.Histogram(name("fleet_interval_p99_ms"))
	return ObserverFunc(func(ist IntervalStats) {
		intervals.Inc()
		queries.Add(int64(ist.Queries))
		drops.Add(int64(ist.Drops))
		shed.Add(int64(ist.Shed))
		hits.Add(int64(ist.CacheHits))
		breached.Add(int64(ist.WindowsBreached))
		offered.Set(ist.OfferedQPS)
		servers.Set(float64(ist.ActiveServers))
		kw.Set(ist.ProvisionedKW)
		// Counters are integral; carbon accumulates in milligrams so
		// sub-gram intervals don't round away.
		carbonMG.Add(int64(ist.CarbonG * 1e3))
		intensity.Set(ist.GridGPerKWh)
		p50.Observe(ist.P50MS)
		p95.Observe(ist.P95MS)
		p99.Observe(ist.P99MS)
	})
}

// dayAggregator folds the per-interval stream into a DayResult: the
// internal observer RunDay installs ahead of any caller-registered
// ones. Accumulation order matches the interval stream exactly, so the
// aggregate is a pure function of the IntervalStats sequence — what
// any external observer could recompute for itself.
type dayAggregator struct {
	res *DayResult
}

// ObserveInterval implements Observer.
func (d *dayAggregator) ObserveInterval(ist IntervalStats) {
	res := d.res
	//lint:allow obscontract DayResult.Steps is the documented owner of the interval stream; the engine hands over each IntervalStats by value
	res.Steps = append(res.Steps, ist)
	if ist.Reprovisioned {
		res.Reprovisions++
	}
	if ist.EarlyReprovision {
		res.EarlyReprovisions++
	}
	if ist.Boosted {
		res.BoostedIntervals++
	}
	res.SpillInServed += ist.SpillInServed
	res.SpillInDropped += ist.SpillInDropped
	res.TotalQueries += ist.Queries
	res.TotalDrops += ist.Drops
	res.TotalShed += ist.Shed
	res.TotalCacheHits += ist.CacheHits
	res.SLAViolationMin += ist.ViolationMin
	res.EnergyKJ += ist.EnergyKJ
	res.ProvisionedEnergyKJ += ist.ProvisionedEnergyKJ
	res.TotalCarbonG += ist.CarbonG
	res.MeanP95MS += ist.P95MS
	res.MeanP99MS += ist.P99MS
	res.MaxP95MS = math.Max(res.MaxP95MS, ist.P95MS)
	res.MaxP99MS = math.Max(res.MaxP99MS, ist.P99MS)
}

// finish converts the accumulated sums into the day's means and
// fractions.
func (d *dayAggregator) finish(steps int) {
	res := d.res
	res.MeanP95MS /= float64(steps)
	res.MeanP99MS /= float64(steps)
	res.setRatios()
}

// setRatios computes DropFrac, CacheHitRate and CarbonPerQueryG from
// the result's totals (zero where the denominator is).
func (res *DayResult) setRatios() {
	res.DropFrac, res.CacheHitRate, res.CarbonPerQueryG = 0, 0, 0
	if res.TotalQueries > 0 {
		res.DropFrac = float64(res.TotalDrops) / float64(res.TotalQueries)
		res.CacheHitRate = float64(res.TotalCacheHits) / float64(res.TotalQueries)
	}
	if served := res.TotalQueries - res.TotalDrops; served > 0 {
		res.CarbonPerQueryG = res.TotalCarbonG / float64(served)
	}
}
