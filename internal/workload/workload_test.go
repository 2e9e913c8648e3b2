package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"hercules/internal/model"
	"hercules/internal/stats"
)

func TestQuerySizeBounds(t *testing.T) {
	d := DefaultQuerySizes()
	r := stats.NewRand(1)
	for i := 0; i < 10000; i++ {
		s := d.Draw(r)
		if s < d.Min || s > d.Max {
			t.Fatalf("size %d outside [%d,%d]", s, d.Min, d.Max)
		}
	}
}

func TestQuerySizeHeavyTail(t *testing.T) {
	// Fig. 2b: distinct heavy tail with p75 ≪ p95 ≪ p99.
	d := DefaultQuerySizes()
	r := stats.NewRand(2)
	s := stats.NewSample(20000)
	for i := 0; i < 20000; i++ {
		s.Add(float64(d.Draw(r)))
	}
	p50, p75, p95, p99 := s.P50(), s.P75(), s.P95(), s.P99()
	if !(p50 < p75 && p75 < p95 && p95 < p99) {
		t.Fatalf("percentiles not increasing: %v %v %v %v", p50, p75, p95, p99)
	}
	if p99/p50 < 3 {
		t.Errorf("tail ratio p99/p50 = %.2f, want heavy (≥3)", p99/p50)
	}
	if p50 < 50 || p50 > 250 {
		t.Errorf("median %v outside the production 10–1000 band's center", p50)
	}
}

func TestGeneratorPoissonRate(t *testing.T) {
	g := NewGenerator(model.DLRMRMC1(model.Prod), 500, 3)
	qs := g.Until(20) // 20 simulated seconds
	got := float64(len(qs)) / 20
	if math.Abs(got-500)/500 > 0.1 {
		t.Errorf("arrival rate = %.1f QPS, want ≈500", got)
	}
	// Arrival times must be strictly increasing with unique IDs.
	for i := 1; i < len(qs); i++ {
		if qs[i].ArrivalS <= qs[i-1].ArrivalS {
			t.Fatalf("arrivals not increasing at %d", i)
		}
		if qs[i].ID == qs[i-1].ID {
			t.Fatalf("duplicate query ID at %d", i)
		}
	}
}

func TestGeneratorSparseScaleMeanOne(t *testing.T) {
	g := NewGenerator(model.DLRMRMC1(model.Prod), 100, 4)
	w := stats.NewSample(5000)
	for i := 0; i < 5000; i++ {
		w.Add(g.Next().SparseScale)
	}
	if math.Abs(w.Mean()-1) > 0.05 {
		t.Errorf("sparse scale mean = %v, want ≈1", w.Mean())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(model.DIN(model.Prod), 100, 42)
	b := NewGenerator(model.DIN(model.Prod), 100, 42)
	for i := 0; i < 100; i++ {
		qa, qb := a.Next(), b.Next()
		if qa != qb {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, qa, qb)
		}
	}
}

func TestPoolingFactorsWithinTableBounds(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	r := stats.NewRand(5)
	for i := 0; i < 1000; i++ {
		pf := PoolingFactors(r, m, 1.0)
		if len(pf) != len(m.Tables) {
			t.Fatalf("pooling factor count mismatch")
		}
		for j, p := range pf {
			if p < m.Tables[j].PoolingMin || p > m.Tables[j].PoolingMax {
				t.Fatalf("table %d factor %d outside [%d,%d]",
					j, p, m.Tables[j].PoolingMin, m.Tables[j].PoolingMax)
			}
		}
	}
}

func TestPoolingFactorsOneHot(t *testing.T) {
	m := model.MTWnD(model.Prod)
	r := stats.NewRand(6)
	pf := PoolingFactors(r, m, 1.3)
	for _, p := range pf {
		if p != 1 {
			t.Fatalf("one-hot table drew pooling %d", p)
		}
	}
}

func TestPoolingFactorVariance(t *testing.T) {
	// Fig. 2c: pooling factors exhibit large variance.
	m := model.DLRMRMC2(model.Prod)
	r := stats.NewRand(7)
	w := stats.NewSample(0)
	for i := 0; i < 500; i++ {
		for _, p := range PoolingFactors(r, m, 1.0) {
			w.Add(float64(p))
		}
	}
	if w.StdDev() < 10 {
		t.Errorf("pooling stddev = %.1f, want large variance", w.StdDev())
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := Synthesize(DefaultDiurnal("svc1", 50000, 1, 8))
	if tr.Steps() != 96 {
		t.Fatalf("1 day at 15-min steps = %d samples, want 96", tr.Steps())
	}
	peak, valley := tr.Peak(), tr.Valley()
	if peak > 50000*1.06 {
		t.Errorf("peak %v exceeds configured bound", peak)
	}
	// Paper: >50% fluctuation between peak and off-peak.
	if (peak-valley)/peak < 0.5 {
		t.Errorf("fluctuation = %.2f, want >0.5", (peak-valley)/peak)
	}
	if tr.Mean() <= valley || tr.Mean() >= peak {
		t.Error("mean must lie between valley and peak")
	}
}

func TestDiurnalSynchronousPeaks(t *testing.T) {
	// Fig. 2d: different services peak at similar times.
	a := Synthesize(DefaultDiurnal("rmc1", 50000, 1, 9))
	b := Synthesize(DefaultDiurnal("rmc2", 50000, 1, 10))
	peakIdx := func(tr DiurnalTrace) int {
		best, idx := 0.0, 0
		for i, l := range tr.LoadsQPS {
			if l > best {
				best, idx = l, i
			}
		}
		return idx
	}
	ia, ib := peakIdx(a), peakIdx(b)
	if diff := math.Abs(float64(ia - ib)); diff > 8 { // within 2 hours
		t.Errorf("peaks misaligned by %v steps", diff)
	}
}

func TestDiurnalAt(t *testing.T) {
	tr := Synthesize(DefaultDiurnal("svc", 1000, 1, 11))
	if tr.At(-5) != tr.LoadsQPS[0] {
		t.Error("At before start must clamp")
	}
	if tr.At(1e12) != tr.LoadsQPS[len(tr.LoadsQPS)-1] {
		t.Error("At after end must clamp")
	}
	if tr.At(0) != tr.LoadsQPS[0] || tr.At(tr.StepS*3.5) != tr.LoadsQPS[3] {
		t.Error("At indexing wrong")
	}
	var empty DiurnalTrace
	if empty.At(0) != 0 || empty.Mean() != 0 || empty.Valley() != 0 {
		t.Error("empty trace must answer zeros")
	}
}

func TestDiurnalMultiDay(t *testing.T) {
	tr := Synthesize(DefaultDiurnal("svc", 1000, 7, 12))
	if tr.Steps() != 96*7 {
		t.Fatalf("7-day trace = %d steps", tr.Steps())
	}
	// Day-over-day peaks should be similar (same diurnal pattern).
	day := func(d int) float64 {
		var max float64
		for i := d * 96; i < (d+1)*96; i++ {
			if tr.LoadsQPS[i] > max {
				max = tr.LoadsQPS[i]
			}
		}
		return max
	}
	if math.Abs(day(0)-day(6))/day(0) > 0.15 {
		t.Error("daily peaks vary too much across the week")
	}
}

func TestEvolutionFractions(t *testing.T) {
	e := DefaultEvolution()
	f0 := e.Fractions(0)
	if math.Abs(f0["DLRM-RMC1"]-1.0/3) > 1e-9 || f0["DIN"] != 0 {
		t.Errorf("step 0 fractions wrong: %v", f0)
	}
	fEnd := e.Fractions(e.Cycle)
	if fEnd["DLRM-RMC1"] != 0 || math.Abs(fEnd["DIN"]-1.0/3) > 1e-9 {
		t.Errorf("final fractions wrong: %v", fEnd)
	}
	// Fig. 16: Day-D2 routes 20% of loads to the new models vs Day-D1.
	mid := e.Fractions(e.Cycle / 2)
	var newSum float64
	for _, m := range e.NewModels {
		newSum += mid[m]
	}
	if math.Abs(newSum-0.5) > 1e-9 {
		t.Errorf("mid-cycle new-model share = %v", newSum)
	}
}

func TestEvolutionFractionsSumToOne(t *testing.T) {
	e := DefaultEvolution()
	f := func(step int8) bool {
		fr := e.Fractions(int(step))
		var sum float64
		for _, v := range fr {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUntilResumable(t *testing.T) {
	g := NewGenerator(model.DLRMRMC1(model.Prod), 100, 13)
	a := g.Until(5)
	b := g.Until(10)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("expected queries in both windows")
	}
	for _, q := range b {
		if q.ArrivalS > 10 || q.ArrivalS <= 5 {
			t.Errorf("query at %v outside (5,10]", q.ArrivalS)
		}
	}
	// Resuming loses nothing: the two windows are exactly one fresh
	// generator's stream to the later horizon.
	want := NewGenerator(model.DLRMRMC1(model.Prod), 100, 13).Until(10)
	if got := append(a, b...); !reflect.DeepEqual(got, want) {
		t.Fatalf("Until(5)+Until(10) gave %d queries, fresh Until(10) %d", len(got), len(want))
	}
}

// Filling bounded chunks until the horizon yields the one-shot stream,
// whatever the bound — including a bound that ends a chunk exactly on
// the stream's last query, and the empty final fill that follows it.
func TestAppendUntilNChunks(t *testing.T) {
	want := NewGenerator(model.DLRMRMC1(model.Prod), 200, 5).Until(3)
	for _, n := range []int{1, 2, 7, len(want) - 1, len(want), len(want) + 1} {
		g := NewGenerator(model.DLRMRMC1(model.Prod), 200, 5)
		var got []Query
		for done := false; !done; {
			var chunk []Query
			chunk, done = g.AppendUntilN(make([]Query, 0, n), 3, n)
			if len(chunk) > n {
				t.Fatalf("n=%d: chunk of %d", n, len(chunk))
			}
			got = append(got, chunk...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: chunked stream of %d queries != one-shot %d", n, len(got), len(want))
		}
		if next, fresh := g.Next(), NewGenerator(model.DLRMRMC1(model.Prod), 200, 5).Until(4); next != fresh[len(want)] {
			t.Fatalf("n=%d: the held query was not returned next", n)
		}
	}
}

func TestEstimateOverProvisionR(t *testing.T) {
	tr := Synthesize(DefaultDiurnal("svc", 50000, 3, 21))
	r15 := EstimateOverProvisionR(tr, 15*60)
	r60 := EstimateOverProvisionR(tr, 60*60)
	if r15 <= 0 {
		t.Fatal("diurnal ramps must need positive headroom")
	}
	if r60 <= r15 {
		t.Errorf("longer intervals need more headroom: 15min=%v 60min=%v", r15, r60)
	}
	// Headroom should be modest — the diurnal ramp is a few percent per
	// 15 minutes, not a doubling.
	if r15 > 0.3 {
		t.Errorf("15-min headroom %v implausibly large", r15)
	}
}

func TestEstimateOverProvisionRDegenerate(t *testing.T) {
	if EstimateOverProvisionR(DiurnalTrace{}, 900) != 0 {
		t.Fatal("empty trace needs no headroom")
	}
	flat := DiurnalTrace{StepS: 900, LoadsQPS: []float64{100, 100, 100, 100}}
	if EstimateOverProvisionR(flat, 900) != 0 {
		t.Fatal("flat load needs no headroom")
	}
	falling := DiurnalTrace{StepS: 900, LoadsQPS: []float64{400, 300, 200, 100}}
	if EstimateOverProvisionR(falling, 900) != 0 {
		t.Fatal("falling load needs no headroom")
	}
}
