package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sameValue reports whether a selected percentile equals the sorted
// oracle: == (so -0 matches +0, as a sort leaves them in either
// order), or both NaN (interpolating between -Inf and +Inf).
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkOracle asserts that PercentilesSelect, PercentileSelect, and a
// Selector's Percentiles and Index/Query over a random segmentation of
// xs all equal PercentileSorted on a sorted copy at every point of ps —
// for Query also over a random run of the segments — and that xs is
// left as it was.
func checkOracle(t *testing.T, name string, r *rand.Rand, sel *Selector, xs, ps []float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	out := make([]float64, len(ps))
	PercentilesSelect(xs, ps, out)
	for i, p := range ps {
		want := PercentileSorted(sorted, p)
		if !sameValue(out[i], want) {
			t.Fatalf("%s n=%d ps=%v: p%v = %v, sorted %v", name, len(xs), ps, p, out[i], want)
		}
		if got := PercentileSelect(xs, p); !sameValue(got, want) {
			t.Fatalf("%s n=%d: PercentileSelect p%v = %v, sorted %v", name, len(xs), p, got, want)
		}
	}

	// The same union cut into segments, empty ones included.
	var segs [][]float64
	for rest := xs; ; {
		k := min(r.Intn(len(xs)/3+2), len(rest))
		segs = append(segs, rest[:k])
		rest = rest[k:]
		if len(rest) == 0 {
			break
		}
	}
	sel.Percentiles(segs, ps, out)
	for i, p := range ps {
		if want := PercentileSorted(sorted, p); !sameValue(out[i], want) {
			t.Fatalf("%s n=%d over %d segments: p%v = %v, sorted %v", name, len(xs), len(segs), p, out[i], want)
		}
	}
	sel.Index(segs)
	from := r.Intn(len(segs))
	to := from + r.Intn(len(segs)-from+1)
	for _, run := range [][2]int{{0, len(segs)}, {from, to}, {from, from + 1}} {
		var sub []float64
		for _, seg := range segs[run[0]:run[1]] {
			sub = append(sub, seg...)
		}
		sort.Float64s(sub)
		sel.Query(run[0], run[1], ps, out)
		for i, p := range ps {
			if want := PercentileSorted(sub, p); !sameValue(out[i], want) {
				t.Fatalf("%s n=%d: Query(%d, %d) of %d segments: p%v = %v, sorted %v",
					name, len(xs), run[0], run[1], len(segs), p, out[i], want)
			}
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s n=%d: input modified at %d", name, len(xs), i)
		}
	}
}

// oracleShapes are the input families the kernel must get exactly
// right: ties, degenerate ranges, the float edge cases and a cluster
// that lands in one first-level bucket.
var oracleShapes = []struct {
	name string
	gen  func(r *rand.Rand, n int) []float64
}{
	{"lognormal", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return Lognormal(r, 0, 1) })
	}},
	{"tie-heavy", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.Intn(4)) })
	}},
	{"quantized", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return math.Round(Lognormal(r, 2, 0.5)*1000) / 1000 })
	}},
	{"all-equal", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return 7.25 })
	}},
	{"mixed-sign", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return r.NormFloat64() * 100 })
	}},
	{"subnormal", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			return float64(r.Intn(2001)-1000) * math.SmallestNonzeroFloat64
		})
	}},
	{"infinities", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			switch r.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return r.NormFloat64()
		})
	}},
	{"signed-zeros", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 {
			switch r.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return float64(r.Intn(3) - 1)
		})
	}},
	{"wide-range", func(r *rand.Rand, n int) []float64 {
		return fill(n, func(int) float64 { return math.Pow(10, r.Float64()*600-300) })
	}},
	{"one-bucket", func(r *rand.Rand, n int) []float64 {
		// Two far outliers stretch the key range, so every other
		// sample — all distinct — falls in one first-level bucket and
		// must be narrowed level by level.
		return fill(n, func(i int) float64 {
			switch i {
			case 0:
				return -1e300
			case 1:
				return 1e300
			}
			return 1 + float64(r.Int63n(1<<40))*0x1p-60
		})
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// PercentileSelect must return bit-identical values to PercentileSorted
// on a sorted copy — the fleet replay's golden determinism depends on
// the two paths being interchangeable.
func TestPercentileSelectMatchesSorted(t *testing.T) {
	r := NewRand(3)
	points := []float64{0, 1, 42.5, 50, 95, 99, 99.9, 100}
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			if trial%3 == 0 {
				xs[i] = float64(r.Intn(4))
			} else {
				xs[i] = Lognormal(r, 0, 1)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range points {
			got := PercentileSelect(xs, p)
			want := PercentileSorted(sorted, p)
			if got != want {
				t.Fatalf("n=%d p=%v: select %v != sorted %v", n, p, got, want)
			}
		}
	}
	if PercentileSelect(nil, 50) != 0 {
		t.Fatal("empty slice must yield 0")
	}
}

// PercentilesSelect must equal PercentileSorted on a sorted copy at
// every point, for ascending, unordered and repeated points, on
// tie-heavy inputs and at n = 0, 1, 2, 3.
func TestPercentilesSelectMatchesSorted(t *testing.T) {
	r := NewRand(5)
	sel := new(Selector)
	pointSets := [][]float64{
		{0, 1, 50, 50, 95, 99, 99.9, 100},
		{95, 99},
		{50, 95, 99},
		{99, 50},
		{99.9, 0.1, 99.9, 50, 100, 0, 50},
	}
	for trial := 0; trial < 90; trial++ {
		n := trial % 4 // 0, 1, 2, 3 ...
		if trial >= 12 {
			n = 1 + r.Intn(500)
		}
		xs := make([]float64, n)
		for i := range xs {
			if trial%3 == 0 {
				xs[i] = float64(r.Intn(3))
			} else {
				xs[i] = Lognormal(r, 0, 1)
			}
		}
		for _, ps := range pointSets {
			checkOracle(t, "mixed", r, sel, xs, ps)
		}
	}
}

// TestSelectorOracle runs every input shape at sizes from 0 up to 60k,
// straddling the sort cutoff and the bucket-count steps.
func TestSelectorOracle(t *testing.T) {
	r := NewRand(11)
	sel := new(Selector)
	sizes := []int{0, 1, 2, 3, 5, sortCutoff, sortCutoff + 1, 100, 1000, 4096, 60000}
	ps := []float64{99, 0, 0.1, 50, 95, 42.5, 50, 99.9, 100, 25, 99}
	for _, shape := range oracleShapes {
		for _, n := range sizes {
			if testing.Short() && n > 5000 {
				continue
			}
			checkOracle(t, shape.name, r, sel, shape.gen(r, n), ps)
		}
	}
}

// TestSelectorZeroAllocs: once its buffers have grown, the kernel does
// not allocate — the replay merge calls it per window every interval.
func TestSelectorZeroAllocs(t *testing.T) {
	r := NewRand(2)
	xs := fill(40000, func(int) float64 { return math.Round(Lognormal(r, 2, 0.5)*1000) / 1000 })
	one := oracleShapes[len(oracleShapes)-1].gen(r, 5000) // narrows
	segs := [][]float64{xs[:10000], xs[10000:25000], nil, xs[25000:], one}
	ps := []float64{50, 95, 99}
	out := make([]float64, len(ps))
	var sel Selector
	run := func() {
		sel.Percentiles(segs, ps, out)
		sel.Percentiles(segs[1:2], ps[1:2], out)
		sel.Percentiles(segs[4:], ps, out)
		sel.Index(segs)
		for i := range segs {
			sel.Query(i, i+1, ps[1:2], out)
		}
		sel.Query(0, 3, ps, out)
		sel.Query(0, len(segs), ps, out)
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("warmed Selector allocates %v times per run", a)
	}
}

// PercentilesSelect's pooled Selectors are shared by every goroutine
// that calls it (the calibration simulates in parallel).
func TestPercentilesSelectConcurrent(t *testing.T) {
	ps := []float64{50, 95, 99}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		r := NewRand(int64(g))
		xs := fill(500+g*300, func(int) float64 { return math.Round(Lognormal(r, 2, 0.5)*100) / 100 })
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(ps))
			for i := 0; i < 200; i++ {
				PercentilesSelect(xs, ps, out)
				for j, p := range ps {
					if want := PercentileSorted(sorted, p); out[j] != want {
						t.Errorf("n=%d p%v = %v, sorted %v", len(xs), p, out[j], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzPercentiles decodes the input as little-endian float64s (NaNs
// dropped; the kernel requires NaN-free input) and checks the kernel
// against the sorted oracle. The first byte, when present, also picks a
// percentile in [0, 100].
func FuzzPercentiles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{128, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{200}, math.Float64bits(math.Inf(-1))))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := []float64{50, 95, 99, 0, 100}
		if len(data) > 0 {
			ps = append(ps, float64(data[0])/255*100)
			data = data[1:]
		}
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		checkOracle(t, "fuzz", NewRand(int64(len(xs))), new(Selector), xs, ps)
	})
}

// BenchmarkPercentiles times the kernel on engine-shaped latencies,
// reporting ns/sample: a 40k interval buffer read at p50/p95/p99, and a
// 4k window read at p95 (the breach verdict). Each case rotates through
// 64 distinct tie-heavy buffers (lognormal latencies quantized to 1 µs,
// about a quarter of them distinct) so no branch pattern repeats, and
// selects from a fresh copy of each, as an in-place selector needs.
func BenchmarkPercentiles(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		ps   []float64
	}{
		{"n=40k/p50-p95-p99", 40000, []float64{50, 95, 99}},
		{"n=4k/p95", 4000, []float64{95}},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := NewRand(int64(c.n))
			bufs := make([][]float64, 64)
			for i := range bufs {
				bufs[i] = fill(c.n, func(int) float64 {
					return math.Round(Lognormal(r, 2, 0.5)*1000) / 1000
				})
			}
			work := make([]float64, c.n)
			out := make([]float64, len(c.ps))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, bufs[i%len(bufs)])
				PercentilesSelect(work, c.ps, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/sample")
		})
	}
}
