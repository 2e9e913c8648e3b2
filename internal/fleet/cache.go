package fleet

import (
	"math"

	"hercules/internal/scenario"
)

// CacheSpec configures the request cache tier in front of routing —
// the piece recommendation serving lives and dies on: a warm cache
// absorbs most of the offered load, so the backends are provisioned
// net of the hit rate, and a cache incident (flush, mix rotation,
// cold start) turns into a miss storm against a fleet sized for the
// warm state. The zero value disables the tier and replays
// bit-identically to the cache-less engine.
//
// The model: each workload tracks a warmth state in [0, 1]. The
// interval's hit rate is HitRate × warmth^Curve — an asymptotic
// maximum scaled by how much of the working set the cache currently
// holds. Hits complete at LatencyMS and never reach a router; misses
// route exactly as without a cache, and every backend-served miss
// refills warmth (1 − e^(−misses/FillQueries) of the remaining gap per
// interval). Scenario events move the state: a Flush event invalidates
// warmth directly, and a MixShift rotates the key population so only
// MixRetention of the warmth survives.
type CacheSpec struct {
	// HitRate is the asymptotic (fully warm) hit rate in [0, 1);
	// 0 disables the cache tier entirely.
	HitRate float64 `json:"hit_rate,omitempty"`
	// LatencyMS is the hit-path latency (default 0.3 ms — an in-memory
	// cache lookup, far below any model's serving SLA).
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// FillQueries is the warm-up constant: the number of backend-served
	// misses (extrapolated to the full interval) that closes 63% of the
	// remaining warmth gap (default 2000).
	FillQueries float64 `json:"fill_queries,omitempty"`
	// Curve is the exponent mapping warmth to hit rate (default 1:
	// linear; > 1 models caches that need most of the working set
	// resident before hits materialize).
	Curve float64 `json:"curve,omitempty"`
	// MixRetention is the warmth fraction surviving a query-mix shift
	// (scenario MixShift: the key population rotates under the cache;
	// default 0.3).
	MixRetention float64 `json:"mix_retention,omitempty"`
	// ColdStart starts the day with empty caches (warmth 0) instead of
	// the fully warm steady state — the cold-start-storm experiment.
	ColdStart bool `json:"cold_start,omitempty"`
	// PerModel overrides the asymptotic hit rate per workload.
	PerModel map[string]float64 `json:"per_model,omitempty"`
}

// Enabled reports whether the spec turns the cache tier on.
func (c CacheSpec) Enabled() bool {
	if c.HitRate > 0 {
		return true
	}
	for _, r := range c.PerModel {
		if r > 0 {
			return true
		}
	}
	return false
}

// maxRate returns the model's asymptotic hit rate, clamped to [0, 0.99]
// (a cache that hits 100% would starve the backends of the miss stream
// that keeps it warm — and divide provisioning by zero).
func (c CacheSpec) maxRate(model string) float64 {
	r := c.HitRate
	if pr, ok := c.PerModel[model]; ok {
		r = pr
	}
	return math.Min(math.Max(r, 0), 0.99)
}

// rateFor maps a model's tracked warmth to this interval's hit rate.
func (c CacheSpec) rateFor(model string, warmth float64) float64 {
	curve := c.Curve
	if curve <= 0 {
		curve = 1
	}
	w := math.Min(math.Max(warmth, 0), 1)
	return c.maxRate(model) * math.Pow(w, curve)
}

// latencyS returns the hit-path latency in seconds.
func (c CacheSpec) latencyS() float64 {
	if c.LatencyMS <= 0 {
		return 0.3e-3
	}
	return c.LatencyMS / 1e3
}

// fillQueries returns the warm-up constant.
func (c CacheSpec) fillQueries() float64 {
	if c.FillQueries <= 0 {
		return 2000
	}
	return c.FillQueries
}

// mixRetention returns the warmth fraction surviving a mix shift.
func (c CacheSpec) mixRetention() float64 {
	if c.MixRetention <= 0 {
		return 0.3
	}
	return math.Min(c.MixRetention, 1)
}

// initialWarmth is the day-start warmth state.
func (c CacheSpec) initialWarmth() float64 {
	if c.ColdStart {
		return 0
	}
	return 1
}

// cacheInit seeds the per-model cache state for one RunDay: warmth at
// the configured day-start value, the provisioner's lagged hit-rate
// estimate at the steady-state expectation (the capacity plan an SRE
// would write down), and the mix-shift detector at the unshifted size
// scale.
func (e *Engine) cacheInit(names []string) {
	e.cacheWarmth = make(map[string]float64, len(names))
	e.cachePrevSize = make(map[string]float64, len(names))
	e.cacheHitPrev = make(map[string]float64, len(names))
	for _, m := range names {
		w := e.Cache.initialWarmth()
		e.cacheWarmth[m] = w
		e.cachePrevSize[m] = 1
		e.cacheHitPrev[m] = e.Cache.rateFor(m, w)
	}
}

// cacheAdvance applies the interval's scenario effects to one model's
// warmth (flush events invalidate warmth directly; a query-mix change
// rotates the key population, keeping only MixRetention of it) and
// returns the hit rate the interval replays at. Called exactly once
// per (interval, model), on the replay goroutine.
func (e *Engine) cacheAdvance(m string, eff scenario.Effects) float64 {
	w := e.cacheWarmth[m]
	if f := eff.Flush(m); f > 0 {
		w *= 1 - f
	}
	if sz := eff.Size(m); sz != e.cachePrevSize[m] {
		w *= e.Cache.mixRetention()
		e.cachePrevSize[m] = sz
	}
	e.cacheWarmth[m] = w
	return e.Cache.rateFor(m, w)
}

// cacheFill refills one model's warmth from the interval's
// backend-served misses, extrapolated from the replayed slice to the
// full interval, and records the realized hit rate as the lagged
// signal the next re-provision sizes against.
func (e *Engine) cacheFill(m string, servedMisses, hits, queries int, extrapolate float64) {
	if eff := float64(servedMisses) * math.Max(extrapolate, 1); eff > 0 {
		w := e.cacheWarmth[m]
		e.cacheWarmth[m] = w + (1-w)*(1-math.Exp(-eff/e.Cache.fillQueries()))
	}
	rate := 0.0
	if queries > 0 {
		rate = float64(hits) / float64(queries)
	}
	e.cacheHitPrev[m] = rate
}

// cacheMissLoads returns the loads the control plane provisions for: the
// offered loads net of each model's lagged measured hit rate. The lag is
// the point — a flush mid-window sends the full offered load against a
// fleet sized for the warm-cache miss rate until the next re-provision
// learns the new hit rate.
func (e *Engine) cacheMissLoads(loads map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(loads))
	for m, l := range loads {
		out[m] = l * (1 - e.cacheHitPrev[m])
	}
	return out
}

// splitmix64 is the avalanche mixer behind the cache-hit hash (the
// same construction the telemetry tracer samples with, on an
// independent stream).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// cacheStreamSeed derives the per-(interval, model) hit-decision
// stream. Membership is a pure function of (seed, interval, model,
// query ID) — like trace sampling, no scheduling order can change
// which queries hit.
func cacheStreamSeed(seed int64, interval int, modelHash int64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^0xCAC4EDA7^uint64(interval)) ^ uint64(modelHash))
}

// cacheHit decides one query's fate at the cache tier: a deterministic
// Bernoulli draw at the interval's hit rate, hashed from the query's
// identity.
func cacheHit(stream uint64, queryID int64, hitRate float64) bool {
	return float64(splitmix64(stream^uint64(queryID))>>11)/(1<<53) < hitRate
}
