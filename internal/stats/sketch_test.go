package stats

import (
	"math"
	"sort"
	"testing"
)

// exactRank returns the order statistic the sketch's Quantile guarantee
// is stated against: the sample at rank ceil(p/100·(n-1)) of the sorted
// stream.
func exactRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(len(sorted)-1)))
	return sorted[r]
}

// checkParity asserts the sketch answer for each tail point is within
// the documented relative-error bound of the exact order statistic, and
// within the bound of the PercentileSelect oracle wherever adjacent
// order statistics are close enough that interpolation cannot widen the
// gap (PercentileSelect interpolates between ranks; the sketch bound is
// stated against actual samples).
func checkParity(t *testing.T, name string, xs []float64, alpha float64) {
	t.Helper()
	sk := NewSketch(alpha)
	for _, x := range xs {
		sk.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		want := exactRank(sorted, p)
		got := sk.Quantile(p)
		if want <= 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > alpha+1e-12 {
			t.Errorf("%s p%.1f: sketch %.6g vs exact-rank %.6g, relative error %.4f > alpha %.4f",
				name, p, got, want, rel, alpha)
		}
		// Oracle cross-check: the exact kernel's interpolated percentile must
		// bracket the sketch answer within alpha once the interpolation
		// span itself is accounted for.
		oracle := PercentileSelect(xs, p)
		lo := int(p / 100 * float64(len(sorted)-1))
		hi := min(lo+1, len(sorted)-1)
		span := sorted[hi] - sorted[lo]
		if math.Abs(got-oracle) > alpha*oracle+span+1e-12 {
			t.Errorf("%s p%.1f: sketch %.6g vs PercentileSelect %.6g exceeds alpha+interpolation slack",
				name, p, got, oracle)
		}
	}
}

// TestSketchParityAdversarial pins the sketch's error bound on the
// distributions that break naive fixed-bin histograms: a bimodal mix
// with a 1000x gap between modes, a Pareto-style heavy tail spanning
// five decades, and a lognormal latency-like stream.
func TestSketchParityAdversarial(t *testing.T) {
	r := NewRand(42)
	const n = 200000

	bimodal := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if r.Float64() < 0.7 {
			bimodal = append(bimodal, 1+r.Float64()) // fast mode ~1ms
		} else {
			bimodal = append(bimodal, 1000+1000*r.Float64()) // stuck mode ~1s
		}
	}
	heavy := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Pareto(alpha=1.2): p99/p50 ratio in the hundreds.
		heavy = append(heavy, math.Pow(1-r.Float64(), -1/1.2))
	}
	logn := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		logn = append(logn, Lognormal(r, math.Log(10), 1.5))
	}

	for _, alpha := range []float64{0.01, 0.02} {
		checkParity(t, "bimodal", bimodal, alpha)
		checkParity(t, "heavy-tail", heavy, alpha)
		checkParity(t, "lognormal", logn, alpha)
	}
}

// TestSketchMergeEqualsWhole: merging per-shard sketches must equal the
// sketch of the concatenated stream exactly (same buckets, same
// quantiles), independent of merge order — the property the parallel
// replay's byte-identity rests on.
func TestSketchMergeEqualsWhole(t *testing.T) {
	r := NewRand(7)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Lognormal(r, 2, 1)
	}
	whole := NewSketch(0.01)
	shards := []*Sketch{NewSketch(0.01), NewSketch(0.01), NewSketch(0.01), NewSketch(0.01)}
	for i, x := range xs {
		whole.Add(x)
		shards[i%len(shards)].Add(x)
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}} {
		merged := NewSketch(0.01)
		for _, i := range order {
			merged.Merge(shards[i])
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("merged count %d != whole %d", merged.Count(), whole.Count())
		}
		for _, p := range []float64{0, 25, 50, 95, 99, 100} {
			if got, want := merged.Quantile(p), whole.Quantile(p); got != want {
				t.Errorf("order %v p%g: merged %.9g != whole %.9g", order, p, got, want)
			}
		}
	}
}

// TestSketchZeroAndNegative: values below the trackable minimum
// (defensive callers may feed zeros) collapse into the zero bucket and
// report as 0 from the low quantiles.
func TestSketchZeroAndNegative(t *testing.T) {
	sk := NewSketch(0.01)
	sk.Add(0)
	sk.Add(-5)
	sk.Add(10)
	sk.Add(10)
	if sk.Count() != 4 {
		t.Fatalf("count = %d, want 4", sk.Count())
	}
	if got := sk.Quantile(0); got != 0 {
		t.Errorf("p0 = %g, want 0", got)
	}
	if got := sk.Quantile(99); math.Abs(got-10) > 0.2 {
		t.Errorf("p99 = %g, want ~10", got)
	}
}

// TestSketchReuse: Reset must clear the observations but keep accuracy,
// and an Init'd value sketch must behave like NewSketch — the pooling
// contract the fleet's per-window sketches rely on.
func TestSketchReuse(t *testing.T) {
	var sk Sketch
	sk.Init(0.02)
	for i := 1; i <= 1000; i++ {
		sk.Add(float64(i))
	}
	sk.Reset()
	if sk.Count() != 0 || sk.Sum() != 0 || sk.Quantile(50) != 0 {
		t.Fatal("Reset left observations behind")
	}
	sk.Add(100)
	if got := sk.Quantile(50); math.Abs(got-100) > 0.02*100 {
		t.Errorf("post-reset p50 = %g, want ~100", got)
	}
}

// TestSketchMemoryScalesWithRange: a million observations spanning
// three decades must occupy only a few hundred buckets — the property
// that unblocks week-scale replays.
func TestSketchMemoryScalesWithRange(t *testing.T) {
	r := NewRand(3)
	sk := NewSketch(0.01)
	for i := 0; i < 1_000_000; i++ {
		sk.Add(1 + 999*r.Float64())
	}
	if b := sk.Buckets(); b > 800 {
		t.Errorf("%d buckets for a 3-decade range at alpha 1%%, want <= 800", b)
	}
}
