package fleet

import (
	"math"
	"reflect"
	"testing"

	"hercules/internal/cluster"
)

// cacheDay is a flat six-interval day (1 hour at 10-minute steps): the
// cache tests need room for a mid-day flush storm between scheduled
// re-provisions (every 4 intervals → boundaries at 0 and 4).
func cacheDay() []cluster.Workload {
	return []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 800, 800, 800, 800, 800),
	}}
}

func runCacheDay(t *testing.T, cache CacheSpec, scenarioJSON string, mutate func(*Options)) DayResult {
	t.Helper()
	opts := testOpts()
	if mutate != nil {
		mutate(&opts)
	}
	spec := replaySpec(PowerOfTwo, opts)
	spec.Cache = cache
	if scenarioJSON != "" {
		spec.Scenario = scenarioJSON
	}
	res, err := newReplayEngine(t, spec).RunDay(cacheDay())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheDisabledIsZeroCost: the zero CacheSpec is off — no hit
// accounting, no warmth state in the interval stream, and a DayResult
// identical to an engine that never heard of the tier (the committed
// golden_day.json, replayed by the golden tests with Cache zero,
// already pins this bit for bit).
func TestCacheDisabledIsZeroCost(t *testing.T) {
	if (CacheSpec{}).Enabled() {
		t.Fatal("zero CacheSpec must be disabled")
	}
	if (CacheSpec{PerModel: map[string]float64{"M": 0}}).Enabled() {
		t.Fatal("all-zero per-model rates must stay disabled")
	}
	if !(CacheSpec{PerModel: map[string]float64{"M": 0.5}}).Enabled() {
		t.Fatal("per-model rate alone must enable the tier")
	}
	res := runCacheDay(t, CacheSpec{}, "", nil)
	if res.TotalCacheHits != 0 || res.CacheHitRate != 0 {
		t.Errorf("disabled cache recorded hits: %d (rate %g)", res.TotalCacheHits, res.CacheHitRate)
	}
	for _, ist := range res.Steps {
		if ist.CacheWarmth != nil || ist.CacheHits != 0 {
			t.Fatalf("interval %d carries cache state with the tier disabled", ist.Index)
		}
	}
}

// TestCacheParallelMatchesSequential: the hit decision is a pure
// function of (seed, interval, model, query ID) — the worker count must
// not move a single query across the hit/miss line.
func TestCacheParallelMatchesSequential(t *testing.T) {
	var seq, par DayResult
	atProcs(1, func() { seq = runCacheDay(t, CacheSpec{HitRate: 0.8}, "", nil) })
	atProcs(8, func() { par = runCacheDay(t, CacheSpec{HitRate: 0.8}, "", nil) })
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("cache-enabled parallel replay diverged from sequential")
	}
	if par.TotalCacheHits == 0 {
		t.Fatal("cache-enabled replay recorded no hits")
	}
}

// TestCacheSteadyStateHitRate: a warm cache realizes its configured
// asymptotic hit rate (Bernoulli draws over thousands of queries), the
// hits complete at cache latency (pulling the median far below the 5 ms
// service floor), and the backends are provisioned net of the hit rate
// (fewer servers than the cache-less fleet).
func TestCacheSteadyStateHitRate(t *testing.T) {
	base := runCacheDay(t, CacheSpec{}, "", nil)
	res := runCacheDay(t, CacheSpec{HitRate: 0.8}, "", nil)
	if math.Abs(res.CacheHitRate-0.8) > 0.03 {
		t.Errorf("realized hit rate %.3f, want ~0.80", res.CacheHitRate)
	}
	for _, ist := range res.Steps {
		if w := ist.CacheWarmth["DLRM-RMC1"]; w < 0.99 {
			t.Errorf("interval %d: steady-state warmth %.3f, want ~1", ist.Index, w)
		}
		if ist.P50MS >= 5 {
			t.Errorf("interval %d: p50 %.2f ms — cache hits (0.3 ms) should dominate the median", ist.Index, ist.P50MS)
		}
		if ist.ActiveServers >= base.Steps[ist.Index].ActiveServers {
			t.Errorf("interval %d: cached fleet %d servers, cache-less %d — misses should provision leaner",
				ist.Index, ist.ActiveServers, base.Steps[ist.Index].ActiveServers)
		}
	}
	if res.TotalDrops > 0 {
		t.Errorf("steady-state cached day dropped %d queries", res.TotalDrops)
	}
}

// TestCacheFlushStorm: a scenario flush mid-window guts the hit rate,
// and because the backends were provisioned against the lagged
// warm-cache miss rate, the miss flood lands on a fleet a fraction of
// the needed size — drops and tail latency must move, measurably,
// until re-provisioning catches up. This is the cache-stampede
// experiment FigCache sweeps.
func TestCacheFlushStorm(t *testing.T) {
	// Flush 90% of warmth every interval across intervals 2-4
	// (midpoints 0.417h-0.75h); re-provisions happen at 0 and 4.
	const storm = `{"name":"flushstorm","events":[
		{"kind":"flush","start_h":0.35,"end_h":0.8,"frac":0.9}]}`
	base := runCacheDay(t, CacheSpec{HitRate: 0.8}, "", nil)
	res := runCacheDay(t, CacheSpec{HitRate: 0.8}, storm, nil)
	if res.Scenario != "flushstorm" {
		t.Fatalf("scenario = %q", res.Scenario)
	}
	if res.CacheHitRate > base.CacheHitRate-0.1 {
		t.Errorf("storm hit rate %.3f vs baseline %.3f — flush did not move it",
			res.CacheHitRate, base.CacheHitRate)
	}
	stormIst, calmIst := res.Steps[2], res.Steps[1]
	if stormIst.CacheHitRate > calmIst.CacheHitRate-0.3 {
		t.Errorf("flushed interval hit rate %.3f vs calm %.3f",
			stormIst.CacheHitRate, calmIst.CacheHitRate)
	}
	if res.TotalDrops <= base.TotalDrops {
		t.Errorf("storm drops %d vs baseline %d — miss flood on the lean fleet must drop",
			res.TotalDrops, base.TotalDrops)
	}
	if res.MaxP99MS <= base.MaxP99MS {
		t.Errorf("storm max p99 %.2f ms vs baseline %.2f ms — tails must move",
			res.MaxP99MS, base.MaxP99MS)
	}
}

// TestCacheColdStart: ColdStart begins the day with empty caches — the
// first interval serves (almost) everything from the backends, and
// warmth (FillQueries-paced) climbs until the realized hit rate
// reaches the asymptote.
func TestCacheColdStart(t *testing.T) {
	res := runCacheDay(t, CacheSpec{HitRate: 0.8, ColdStart: true, FillQueries: 3e5}, "", nil)
	first, last := res.Steps[0], res.Steps[len(res.Steps)-1]
	if first.CacheHitRate != 0 {
		t.Errorf("cold first interval hit rate %.3f, want 0", first.CacheHitRate)
	}
	if last.CacheHitRate < 0.7 {
		t.Errorf("warmed-up hit rate %.3f, want near 0.8", last.CacheHitRate)
	}
	prev := -1.0
	for _, ist := range res.Steps {
		w := ist.CacheWarmth["DLRM-RMC1"]
		if w < prev {
			t.Errorf("interval %d: warmth %.3f fell below previous %.3f during warm-up", ist.Index, w, prev)
		}
		prev = w
	}
}

// TestCacheMixShiftRotatesWorkingSet: a scenario mix shift rotates the
// key population under the cache — only MixRetention of the warmth
// survives, so the shifted interval's hit rate dips even though no
// flush fired.
func TestCacheMixShiftRotatesWorkingSet(t *testing.T) {
	const shift = `{"name":"rotate","events":[
		{"kind":"mixshift","start_h":0.35,"end_h":0.8,"factor":1.5}]}`
	res := runCacheDay(t, CacheSpec{HitRate: 0.8, FillQueries: 3e5, MixRetention: 0.2}, shift, nil)
	calm, shifted := res.Steps[1], res.Steps[2]
	if shifted.CacheHitRate > calm.CacheHitRate-0.2 {
		t.Errorf("mix-shifted interval hit rate %.3f vs calm %.3f — rotation did not bite",
			shifted.CacheHitRate, calm.CacheHitRate)
	}
}

// TestCacheSpecDefaults pins the derived tuning: latency, fill,
// retention and curve defaults, the 0.99 asymptote clamp, and the
// per-model override.
func TestCacheSpecDefaults(t *testing.T) {
	var c CacheSpec
	if got := c.latencyS(); got != 0.3e-3 {
		t.Errorf("default latency %g s", got)
	}
	if got := c.fillQueries(); got != 2000 {
		t.Errorf("default fill %g", got)
	}
	if got := c.mixRetention(); got != 0.3 {
		t.Errorf("default retention %g", got)
	}
	c = CacheSpec{HitRate: 1.5, PerModel: map[string]float64{"B": 0.4}}
	if got := c.maxRate("A"); got != 0.99 {
		t.Errorf("asymptote clamp: %g", got)
	}
	if got := c.maxRate("B"); got != 0.4 {
		t.Errorf("per-model override: %g", got)
	}
	if got := (CacheSpec{HitRate: 0.8, Curve: 2}).rateFor("A", 0.5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("curve 2 at warmth 0.5: %g, want 0.2", got)
	}
	if got := (CacheSpec{HitRate: 0.8, ColdStart: true}).initialWarmth(); got != 0 {
		t.Errorf("cold start warmth %g", got)
	}
}
