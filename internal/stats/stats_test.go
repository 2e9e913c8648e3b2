package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Mean() != 0 || s.P99() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sample should answer zeros")
	}
	if s.Len() != 0 {
		t.Fatalf("empty sample Len = %d", s.Len())
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(100)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v, want 100", got)
	}
	if got := s.P50(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", got)
	}
	if got := s.P99(); got < 99 || got > 100 {
		t.Errorf("P99 = %v, want in [99,100]", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestSampleSingle(t *testing.T) {
	s := NewSample(1)
	s.Add(42)
	for _, p := range []float64{0, 50, 95, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("P%v = %v, want 42", p, got)
		}
	}
}

func TestSampleReset(t *testing.T) {
	s := NewSample(4)
	s.Add(1)
	s.Add(2)
	s.Reset()
	if s.Len() != 0 || s.Sum() != 0 {
		t.Fatalf("reset did not clear sample")
	}
	s.Add(7)
	if s.Mean() != 7 {
		t.Fatalf("sample unusable after reset")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		pp := math.Mod(math.Abs(p), 100)
		v := s.Percentile(pp)
		return v >= s.Min()-1e-12 && v <= s.Max()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(-5)  // clamps to bin 0
	h.Observe(100) // clamps to last bin
	h.Observe(5)
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Fatalf("unexpected bins: %v", h.Counts)
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	h := NewHistogram(0, 1, 7)
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		h.Observe(r.Float64())
	}
	var sum float64
	for i := range h.Counts {
		sum += h.Fraction(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if h.Table() == "" {
		t.Fatal("Table() should render rows")
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and bins<=0 are repaired
	h.Observe(5)
	if h.Total() != 1 {
		t.Fatal("degenerate histogram must still count")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Fatal("ClampInt wrong")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(4)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(r, 5)
	}
	if mean := sum / n; math.Abs(mean-0.2) > 0.02 {
		t.Errorf("exp(rate=5) mean = %v, want 0.2", mean)
	}
	if !math.IsInf(Exponential(r, 0), 1) {
		t.Error("rate 0 must give +Inf gap")
	}
}

func TestLognormalPositive(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		if Lognormal(r, 1, 0.5) <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

// TestSeedMixingPinned pins the seed-mixing kernel: every replay's
// streams (interval and model sub-seeds, cache hits, remote origins,
// trace sampling) derive from these three functions, so a changed
// output re-rolls every golden.
func TestSeedMixingPinned(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf}, // the reference splitmix64's first output
		{1, 0x910a2dec89025cc1},
		{0xDEADBEEF, 0x4adfb90f68c9eb9b},
	} {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
	for _, c := range []struct {
		seed int64
		vals []int64
		want int64
	}{
		{42, nil, 5700357409661599263},
		{42, []int64{1, 2}, 1310014639956398582},
		{-7, []int64{0x5eed, 3}, 8083482993240468685},
	} {
		if got := MixSeed(c.seed, c.vals...); got != c.want {
			t.Errorf("MixSeed(%d, %v) = %d, want %d", c.seed, c.vals, got, c.want)
		}
	}
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"", 7347990519673328018}, // the FNV-1a offset basis, halved
		{"DLRM-RMC1", 3656695904822007837},
		{"east", 1191989558177162782},
	} {
		if got := HashString(c.in); got != c.want {
			t.Errorf("HashString(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
