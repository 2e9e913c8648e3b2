package workload

import (
	"math"
	"math/rand"

	"hercules/internal/model"
	"hercules/internal/stats"
)

// QuerySizeDist describes the distribution of query sizes (number of
// items to rank per query). Production sizes are heavy-tailed between
// ~10 and ~1000 with p75≪p95≪p99 (Fig. 2b); a clamped lognormal
// reproduces that shape.
type QuerySizeDist struct {
	Mu    float64 // location of underlying normal
	Sigma float64 // scale (tail heaviness)
	Min   int
	Max   int
}

// DefaultQuerySizes matches the paper's histogram: median near 100,
// p99 approaching 1000, support [10, 1000].
func DefaultQuerySizes() QuerySizeDist {
	return QuerySizeDist{Mu: math.Log(110), Sigma: 0.75, Min: 10, Max: 1000}
}

// Draw samples one query size.
func (d QuerySizeDist) Draw(r *rand.Rand) int {
	x := stats.Lognormal(r, d.Mu, d.Sigma)
	return stats.ClampInt(int(math.Round(x)), d.Min, d.Max)
}

// Mean returns the analytical mean of the clamped lognormal,
// approximated by the unclamped mean (clamping is mild at the defaults).
func (d QuerySizeDist) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

// Query is one inference request: rank Size items for one user.
// SparseScale captures the query's deviation from the model's mean
// pooling factors (Fig. 2c variance): the cost model multiplies embedding
// bytes by it.
type Query struct {
	ID          int64
	ArrivalS    float64 // arrival time, seconds since epoch of the run
	Size        int     // items to rank
	SparseScale float64 // per-query pooling multiplier (mean 1.0)
}

// Items returns the query's item count as float64.
func (q Query) Items() float64 { return float64(q.Size) }

// Generator produces a Poisson query stream for one model.
type Generator struct {
	Model     *model.Model
	Sizes     QuerySizeDist
	RateQPS   float64 // arrival rate (queries per second)
	rng       *rand.Rand
	nextID    int64
	clockS    float64
	poolSigma float64
	// held is the overshoot query a fill stopped at (hasHeld set): it
	// arrives past that fill's horizon and is the next call's first.
	held    Query
	hasHeld bool
}

// NewGenerator returns a generator with the given arrival rate and seed.
func NewGenerator(m *model.Model, rateQPS float64, seed int64) *Generator {
	return &Generator{
		Model:     m,
		Sizes:     DefaultQuerySizes(),
		RateQPS:   rateQPS,
		rng:       stats.NewRand(seed),
		poolSigma: 0.3,
	}
}

// Next returns the next query in arrival order. The inter-arrival gap is
// exponential (Poisson process).
func (g *Generator) Next() Query {
	if g.hasHeld {
		g.hasHeld = false
		return g.held
	}
	return g.draw()
}

// draw generates a fresh query one exponential gap after the last.
func (g *Generator) draw() Query {
	g.clockS += stats.Exponential(g.rng, g.RateQPS)
	g.nextID++
	// Lognormal multiplier with mean 1: exp(N(-s²/2, s)).
	scale := stats.Lognormal(g.rng, -g.poolSigma*g.poolSigma/2, g.poolSigma)
	return Query{
		ID:          g.nextID,
		ArrivalS:    g.clockS,
		Size:        g.Sizes.Draw(g.rng),
		SparseScale: scale,
	}
}

// Until generates queries until the given virtual time (seconds).
func (g *Generator) Until(tS float64) []Query {
	return g.AppendUntil(nil, tS)
}

// AppendUntil generates queries until the given virtual time (seconds),
// appending to buf and returning the extended slice. Callers replaying
// many intervals reuse one buffer (buf[:0]) so generation stops
// allocating after the first interval. The first query past tS is held
// for the next call, so consecutive calls continue one stream:
// Until(5) then Until(10) yields exactly a fresh Until(10).
func (g *Generator) AppendUntil(buf []Query, tS float64) []Query {
	buf, _ = g.AppendUntilN(buf, tS, math.MaxInt)
	return buf
}

// AppendUntilN is AppendUntil bounded to n queries: it appends at most
// n and reports whether the stream reached tS, that is, whether it
// stopped at a query past tS (held for the next call) rather than at
// the bound. Filling a fixed-size buffer chunk by chunk until it
// reports true yields the same stream as one AppendUntil.
func (g *Generator) AppendUntilN(buf []Query, tS float64, n int) ([]Query, bool) {
	if g.hasHeld && n > 0 {
		if g.held.ArrivalS > tS {
			return buf, true
		}
		g.hasHeld = false
		buf = append(buf, g.held)
		n--
	}
	for ; n > 0; n-- {
		q := g.draw()
		if q.ArrivalS > tS {
			g.held, g.hasHeld = q, true
			return buf, true
		}
		buf = append(buf, q)
	}
	return buf, false
}

// PoolingFactors draws per-table pooling factors for one query of the
// given model (Fig. 2c: large variance across 15 tables, clamped to each
// table's [min,max]).
func PoolingFactors(r *rand.Rand, m *model.Model, sparseScale float64) []int {
	out := make([]int, len(m.Tables))
	for i, t := range m.Tables {
		if t.PoolingMax == t.PoolingMin {
			out[i] = t.PoolingMin
			continue
		}
		mean := t.MeanPooling() * sparseScale
		// Lognormal around the (scaled) mean with moderate dispersion.
		x := stats.Lognormal(r, math.Log(math.Max(mean, 1))-0.08, 0.4)
		out[i] = stats.ClampInt(int(math.Round(x)), t.PoolingMin, t.PoolingMax)
	}
	return out
}

// DiurnalTrace is a per-service cluster load trace: load (QPS) sampled
// at fixed intervals over one or more days (Fig. 2d).
type DiurnalTrace struct {
	Service  string
	StepS    float64   // sampling interval in seconds
	LoadsQPS []float64 // samples
}

// DiurnalConfig parameterizes the synthesizer.
type DiurnalConfig struct {
	Service string
	PeakQPS float64
	// ValleyFrac is the trough-to-peak ratio; the paper reports >50%
	// fluctuation, so the default is 0.4 (valley = 40% of peak).
	ValleyFrac float64
	// PeakHour is the local hour of daily peak (synchronous across
	// services and datacenters per Fig. 2d).
	PeakHour float64
	Days     int
	StepMin  float64 // sample step in minutes
	NoiseStd float64 // multiplicative noise std (e.g. 0.02)
	Seed     int64
}

// DefaultDiurnal returns the synthesizer config used by the cluster
// experiments: peak at hour 20, 40% valley, 15-minute steps.
func DefaultDiurnal(service string, peakQPS float64, days int, seed int64) DiurnalConfig {
	return DiurnalConfig{
		Service:    service,
		PeakQPS:    peakQPS,
		ValleyFrac: 0.4,
		PeakHour:   20,
		Days:       days,
		StepMin:    15,
		NoiseStd:   0.02,
		Seed:       seed,
	}
}

// Synthesize builds the diurnal trace: a raised cosine fundamental plus a
// weak second harmonic (morning shoulder), with multiplicative noise.
func Synthesize(cfg DiurnalConfig) DiurnalTrace {
	r := stats.NewRand(cfg.Seed)
	stepS := cfg.StepMin * 60
	n := int(float64(cfg.Days) * 24 * 60 / cfg.StepMin)
	loads := make([]float64, n)
	mid := (1 + cfg.ValleyFrac) / 2
	amp := (1 - cfg.ValleyFrac) / 2
	for i := 0; i < n; i++ {
		hour := math.Mod(float64(i)*cfg.StepMin/60, 24)
		phase := 2 * math.Pi * (hour - cfg.PeakHour) / 24
		base := mid + amp*(0.85*math.Cos(phase)+0.15*math.Cos(2*phase))
		noise := 1 + r.NormFloat64()*cfg.NoiseStd
		loads[i] = stats.Clamp(cfg.PeakQPS*base*noise, 0, cfg.PeakQPS*1.05)
	}
	return DiurnalTrace{Service: cfg.Service, StepS: stepS, LoadsQPS: loads}
}

// Peak returns the maximum load in the trace.
func (t DiurnalTrace) Peak() float64 {
	var max float64
	for _, l := range t.LoadsQPS {
		if l > max {
			max = l
		}
	}
	return max
}

// Valley returns the minimum load in the trace.
func (t DiurnalTrace) Valley() float64 {
	if len(t.LoadsQPS) == 0 {
		return 0
	}
	min := t.LoadsQPS[0]
	for _, l := range t.LoadsQPS {
		if l < min {
			min = l
		}
	}
	return min
}

// Mean returns the average load.
func (t DiurnalTrace) Mean() float64 {
	if len(t.LoadsQPS) == 0 {
		return 0
	}
	var sum float64
	for _, l := range t.LoadsQPS {
		sum += l
	}
	return sum / float64(len(t.LoadsQPS))
}

// At returns the load at the given time offset (seconds), clamping to
// the trace bounds.
func (t DiurnalTrace) At(tS float64) float64 {
	if len(t.LoadsQPS) == 0 {
		return 0
	}
	i := int(tS / t.StepS)
	i = stats.ClampInt(i, 0, len(t.LoadsQPS)-1)
	return t.LoadsQPS[i]
}

// Steps returns the number of samples.
func (t DiurnalTrace) Steps() int { return len(t.LoadsQPS) }

// EstimateOverProvisionR implements §IV-C's headroom estimation: the
// over-provision rate R must cover the load increase that can occur
// within one re-provisioning interval (tens of minutes), and is
// estimated by profiling historical load changes over that horizon.
// It returns the 99th percentile of the relative per-interval load
// increase, as a fraction (e.g. 0.05 = provision 5% above current load).
func EstimateOverProvisionR(t DiurnalTrace, intervalS float64) float64 {
	if len(t.LoadsQPS) < 2 || t.StepS <= 0 {
		return 0
	}
	stride := int(intervalS / t.StepS)
	if stride < 1 {
		stride = 1
	}
	inc := stats.NewSample(len(t.LoadsQPS))
	for i := 0; i+stride < len(t.LoadsQPS); i++ {
		cur := t.LoadsQPS[i]
		if cur <= 0 {
			continue
		}
		next := t.LoadsQPS[i+stride]
		rel := (next - cur) / cur
		if rel < 0 {
			rel = 0 // decreases need no headroom
		}
		inc.Add(rel)
	}
	return inc.P99()
}

// EvolutionMix describes the model-evolution experiment (Fig. 16a): the
// fraction of total load served by each model shifts linearly from the
// old set (DLRM-RMC1/2/3) to the new set (DIN, DIEN, MT-WnD) over the
// update cycle.
type EvolutionMix struct {
	OldModels []string
	NewModels []string
	// Cycle is the number of evolution snapshots (Day-D1 = snapshot 0).
	Cycle int
}

// DefaultEvolution matches Fig. 16a: loads of RMC1/2/3 gradually replaced
// by DIN/DIEN/MT-WnD.
func DefaultEvolution() EvolutionMix {
	return EvolutionMix{
		OldModels: []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"},
		NewModels: []string{"DIN", "DIEN", "MT-WnD"},
		Cycle:     6,
	}
}

// Fractions returns the per-model load fractions at evolution snapshot
// step (0..Cycle). At step 0 the old models carry all the load; at step
// Cycle the new models carry all of it. Within each set, load splits
// evenly.
func (e EvolutionMix) Fractions(step int) map[string]float64 {
	step = stats.ClampInt(step, 0, e.Cycle)
	newShare := float64(step) / float64(e.Cycle)
	out := make(map[string]float64, len(e.OldModels)+len(e.NewModels))
	for _, m := range e.OldModels {
		out[m] = (1 - newShare) / float64(len(e.OldModels))
	}
	for _, m := range e.NewModels {
		out[m] = newShare / float64(len(e.NewModels))
	}
	return out
}
