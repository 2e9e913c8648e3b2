package stats

import (
	"sort"
	"testing"
)

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
				// Duplicate-heavy inputs stress the Hoare partition.
				xs[i] = float64(r.Intn(4))
			} else {
				xs[i] = Lognormal(r, 0, 1)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range points {
			work := append([]float64(nil), xs...)
			got := PercentileSelect(work, p)
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

// PercentilesSelect's chained selects must equal PercentileSorted on a
// sorted copy at every point, on tie-heavy inputs and at n = 0, 1, 2.
func TestPercentilesSelectMatchesSorted(t *testing.T) {
	r := NewRand(5)
	ps := []float64{0, 1, 50, 50, 95, 99, 99.9, 100}
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
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, pts := range [][]float64{ps, {95, 99}, {50, 95, 99}, {99, 50}} {
			out := make([]float64, len(pts))
			PercentilesSelect(append([]float64(nil), xs...), pts, out)
			for i, p := range pts {
				if want := PercentileSorted(sorted, p); out[i] != want {
					t.Fatalf("n=%d points %v: p%v = %v, sorted %v", n, pts, p, out[i], want)
				}
			}
		}
	}
}
