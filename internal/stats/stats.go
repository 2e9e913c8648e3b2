package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// NewRand returns a deterministic PRNG for the given seed. Seeds are
// namespaced by experiment so that sub-experiments do not share streams.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitMix64 is the splitmix64 finalizer, the avalanche mixer behind
// every per-query hash draw (cache hits, remote origins, trace
// sampling): each output bit depends on every input bit.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// MixSeed derives a deterministic sub-seed (splitmix64-style) from a
// seed and any number of stream coordinates, so intervals, models and
// sweep cells draw from independent streams.
func MixSeed(seed int64, vals ...int64) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, v := range vals {
		h ^= uint64(v) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	return int64(h >> 1)
}

// HashString folds a string into a non-negative seed coordinate
// (FNV-1a).
func HashString(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// Sample accumulates float64 observations and answers order-statistic
// queries. It keeps all samples; simulations here are small enough
// (≤ a few million observations) that exact percentiles are affordable
// and avoid estimator bias in the tail, which matters for SLA checks.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// Len reports the number of recorded observations.
func (s *Sample) Len() int { return len(s.xs) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	s.ensureSorted()
	return PercentileSorted(s.xs, p)
}

// PercentileSorted returns the p-th percentile (p in [0,100]) of an
// already-sorted slice, using the same closest-rank interpolation as
// Sample.Percentile. Hot loops that manage their own buffers (the fleet
// replay merge) sort once and read several percentiles without paying
// Sample's bookkeeping.
func PercentileSorted(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// P50, P75, P95 and P99 are convenience accessors for common tail points.
func (s *Sample) P50() float64 { return s.Percentile(50) }

// P75 returns the 75th percentile.
func (s *Sample) P75() float64 { return s.Percentile(75) }

// P95 returns the 95th percentile.
func (s *Sample) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all observations but keeps the backing array.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
	s.sum = 0
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bin so mass is never lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Observe adds one observation to the histogram.
func (h *Histogram) Observe(x float64) {
	bin := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Table renders writable rows for reproducing paper figures on stdout.
// Each row is "center<TAB>count<TAB>fraction".
func (h *Histogram) Table() string {
	var sb strings.Builder
	for i := range h.Counts {
		fmt.Fprintf(&sb, "%.4g\t%d\t%.4f\n", h.BinCenter(i), h.Counts[i], h.Fraction(i))
	}
	return sb.String()
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampInt restricts x to [lo, hi].
func ClampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lognormal draws a lognormal variate with the given location mu and
// scale sigma of the underlying normal.
func Lognormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Exponential draws an exponential variate with the given rate (events
// per unit time). Used for Poisson inter-arrival gaps.
func Exponential(r *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.ExpFloat64() / rate
}
