package fleet

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/grid"
	"hercules/internal/hw"
	"hercules/internal/power"
	"hercules/internal/workload"
)

func TestCarbonScalerRegimes(t *testing.T) {
	c := defaultPolicy[*carbonScaler](scalerTable, "carbon")
	mean := 300.0

	// Clean hour: boost headroom (a regime change is an early trigger).
	early, extra := c.IntervalEnd(ScalerSignal{NextGridGPerKWh: mean * 0.5, GridMeanGPerKWh: mean})
	if !early || extra != c.BoostR {
		t.Errorf("clean hour: early=%v extra=%g, want true/%g", early, extra, c.BoostR)
	}
	// Same regime next interval: no new trigger.
	if early, extra = c.IntervalEnd(ScalerSignal{NextGridGPerKWh: mean * 0.6, GridMeanGPerKWh: mean}); early || extra != c.BoostR {
		t.Errorf("steady clean hour: early=%v extra=%g, want false/%g", early, extra, c.BoostR)
	}
	// Dirty hour: lean (negative headroom, clamped by the engine).
	if early, extra = c.IntervalEnd(ScalerSignal{NextGridGPerKWh: mean * 1.5, GridMeanGPerKWh: mean}); !early || extra != -c.LeanR {
		t.Errorf("dirty hour: early=%v extra=%g, want true/%g", early, extra, -c.LeanR)
	}
	// Dead band: base headroom.
	if early, extra = c.IntervalEnd(ScalerSignal{NextGridGPerKWh: mean, GridMeanGPerKWh: mean}); !early || extra != 0 {
		t.Errorf("dead band: early=%v extra=%g, want true/0", early, extra)
	}
}

func TestCarbonScalerBreachBackstop(t *testing.T) {
	c := defaultPolicy[*carbonScaler](scalerTable, "carbon")
	mean := 300.0
	// Dirtiest possible hour, but the fleet is breaching: latency wins.
	dirty := ScalerSignal{NextGridGPerKWh: mean * 2, GridMeanGPerKWh: mean}
	breached := dirty
	breached.Breached = breachRun(c.Patience).Breached
	early, extra := c.IntervalEnd(breached)
	if !early || extra != c.BoostR {
		t.Fatalf("backstop: early=%v extra=%g, want true/%g", early, extra, c.BoostR)
	}
	// The boost holds for HoldIntervals total despite the dirty grid.
	held := 1
	for i := 0; i < c.HoldIntervals+2; i++ {
		if _, extra := c.IntervalEnd(dirty); extra == c.BoostR {
			held++
		}
	}
	if held != c.HoldIntervals {
		t.Errorf("boost held %d intervals, want %d", held, c.HoldIntervals)
	}
	if c.TriggerCount() == 0 {
		t.Error("backstop trigger not counted")
	}
}

func TestCarbonAdmissionDeferralRamp(t *testing.T) {
	a := defaultPolicy[*carbonAdmission](admissionTable, "carbon")
	base := AdmissionSignal{Model: "m", SLATargetMS: 20, GridMeanGPerKWh: 300, DeferrableFrac: 0.25}

	sig := base
	sig.GridGPerKWh = 300 // at the mean: nothing deferred
	if got := a.ShedFrac(sig); got != 0 {
		t.Errorf("at mean: shed %g, want 0", got)
	}
	sig.GridGPerKWh = 300 * 1.15 // halfway up the 0.30 ramp
	if got, want := a.ShedFrac(sig), 0.25*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("half ramp: shed %g, want %g", got, want)
	}
	sig.GridGPerKWh = 300 * 2 // far past the ramp: the whole class, no more
	if got := a.ShedFrac(sig); got != 0.25 {
		t.Errorf("deep overshoot: shed %g, want the deferrable cap 0.25", got)
	}
	// Overload on top of a dirty hour still may not touch realtime.
	sig.PrevP99MS = 200
	if got := a.ShedFrac(sig); got != 0.25 {
		t.Errorf("overload + dirty: shed %g, want capped at 0.25", got)
	}
	// No grid configured: only the overload term, scaled to the class.
	overload := AdmissionSignal{Model: "m", SLATargetMS: 20, PrevP99MS: 30, DeferrableFrac: 0.25}
	got := a.ShedFrac(overload)
	if got <= 0 || got > 0.25 {
		t.Errorf("gridless overload: shed %g, want in (0, 0.25]", got)
	}
	// Zero DeferrableFrac falls back to the package default.
	fallback := AdmissionSignal{Model: "m", GridGPerKWh: 900, GridMeanGPerKWh: 300}
	if got := a.ShedFrac(fallback); got != grid.DefaultDeferrableFrac {
		t.Errorf("default class share: shed %g, want %g", got, grid.DefaultDeferrableFrac)
	}
}

// TestMergeDaysCarbonAlgebra pins the carbon half of the merge
// algebra: total grams sum, gCO2/query is recomputed query-weighted
// from the merged totals, and folding orders agree.
func TestMergeDaysCarbonAlgebra(t *testing.T) {
	a := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 1000, TotalDrops: 100, EnergyKJ: 50, TotalCarbonG: 900, CarbonPerQueryG: 1}
	b := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 3000, TotalDrops: 0, EnergyKJ: 150, TotalCarbonG: 300, CarbonPerQueryG: 0.1}
	c := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 600, TotalDrops: 0, EnergyKJ: 30, TotalCarbonG: 0}

	flat := MergeDays(a, b, c)
	if flat.TotalCarbonG != 1200 {
		t.Errorf("TotalCarbonG = %g, want the sum 1200", flat.TotalCarbonG)
	}
	served := float64(1000 - 100 + 3000 + 600)
	if want := 1200 / served; math.Abs(flat.CarbonPerQueryG-want) > 1e-12 {
		t.Errorf("CarbonPerQueryG = %g, want the served-weighted %g", flat.CarbonPerQueryG, want)
	}
	for name, fold := range map[string]DayResult{
		"left":  MergeDays(MergeDays(a, b), c),
		"right": MergeDays(a, MergeDays(b, c)),
	} {
		if math.Abs(fold.TotalCarbonG-flat.TotalCarbonG) > 1e-9 {
			t.Errorf("%s fold TotalCarbonG = %g, want %g", name, fold.TotalCarbonG, flat.TotalCarbonG)
		}
		if math.Abs(fold.CarbonPerQueryG-flat.CarbonPerQueryG) > 1e-12 {
			t.Errorf("%s fold CarbonPerQueryG = %g, want %g", name, fold.CarbonPerQueryG, flat.CarbonPerQueryG)
		}
	}
	// All-dropped merge must not divide by zero.
	dead := MergeDays(DayResult{TotalQueries: 10, TotalDrops: 10, TotalCarbonG: 5})
	if dead.CarbonPerQueryG != 0 {
		t.Errorf("zero served: CarbonPerQueryG = %g, want 0", dead.CarbonPerQueryG)
	}
}

// stripCarbon zeroes every grid-derived field so a grid-priced replay
// can be compared against its grid-less twin.
func stripCarbon(res DayResult) DayResult {
	res.TotalCarbonG, res.CarbonPerQueryG = 0, 0
	for i := range res.Steps {
		res.Steps[i].GridGPerKWh, res.Steps[i].CarbonG = 0, 0
	}
	return res
}

// TestGridIsPureObservation: with a latency-only scaler and no
// carbon admission, attaching a grid timeline must change nothing but
// the carbon accounting — pricing is observation, never control.
func TestGridIsPureObservation(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 1200, 1600, 2000, 1600, 1200, 800, 600),
	}}
	run := func(g grid.Spec) DayResult {
		t.Helper()
		e, err := NewEngine(Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
			HeadroomR: 0.05, Grid: g, Options: testOpts()},
			WithFleet(testFleet()), WithTable(testTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunDay(ws)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(grid.Spec{})
	priced := run(grid.Spec{Curve: "duck"})
	if priced.TotalCarbonG <= 0 || priced.CarbonPerQueryG <= 0 {
		t.Fatalf("grid run priced nothing: %g g total", priced.TotalCarbonG)
	}
	var intervalG float64
	for _, s := range priced.Steps {
		if s.GridGPerKWh <= 0 {
			t.Errorf("interval %d: no grid intensity", s.Index)
		}
		intervalG += s.CarbonG
	}
	if math.Abs(intervalG-priced.TotalCarbonG) > 1e-9 {
		t.Errorf("interval carbon sums to %g, day total %g", intervalG, priced.TotalCarbonG)
	}
	if plain.TotalCarbonG != 0 || plain.CarbonPerQueryG != 0 {
		t.Errorf("grid-less run priced carbon: %g g", plain.TotalCarbonG)
	}
	if !reflect.DeepEqual(stripCarbon(priced), plain) {
		t.Error("grid pricing changed the replay beyond the carbon fields")
	}
}

// TestZeroGridOmitsCarbonJSON pins the byte-identity guarantee for
// serialized results: a run with no grid must emit exactly the
// pre-grid JSON — no carbon, intensity or powercap keys anywhere.
func TestZeroGridOmitsCarbonJSON(t *testing.T) {
	e := testEngine(PowerOfTwo, testOpts())
	res, err := e.RunDay(goldenWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"carbon", "grid", "power_capped"} {
		if strings.Contains(string(data), key) {
			t.Errorf("zero-grid DayResult JSON leaks %q keys", key)
		}
	}
}

// sigRecorder is a Scaler that records every signal the engine hands
// it and delegates the decision to inner; with a nil inner it never
// re-provisions early.
type sigRecorder struct {
	inner Scaler
	sigs  []ScalerSignal
}

func (r *sigRecorder) Name() string {
	if r.inner != nil {
		return r.inner.Name()
	}
	return "rec"
}

func (r *sigRecorder) IntervalEnd(sig ScalerSignal) (bool, float64) {
	rec := sig
	rec.Breached = slices.Clone(sig.Breached) // the engine reuses the slice
	r.sigs = append(r.sigs, rec)
	if r.inner == nil {
		return false, 0
	}
	return r.inner.IntervalEnd(sig)
}

func (r *sigRecorder) TriggerCount() int {
	if r.inner != nil {
		return r.inner.TriggerCount()
	}
	return 0
}

// scalerFeedDay replays the scaler-signal day under a recording
// scaler. Hourly steps give every interval its own hour of the duck
// curve. The surge at hours 1-2 outruns the fleet provisioned for hour
// 0 and breaches (the recorder never re-provisions early), hour 3
// offers nothing, and the query budget shortens the busier slices, so
// the window count varies by interval.
func scalerFeedDay(t *testing.T) (DayResult, *sigRecorder, workload.DiurnalTrace, grid.Spec) {
	t.Helper()
	tr := workload.DiurnalTrace{Service: "test", StepS: 3600,
		LoadsQPS: []float64{200, 2400, 2400, 0, 1200, 2400, 800, 200}}
	opts := testOpts()
	opts.MaxQueriesPerInterval = 4000
	gs := grid.Spec{Curve: "duck"}
	e, err := NewEngine(Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05, Grid: gs, Options: opts},
		WithFleet(testFleet()), WithTable(testTable()),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
	if err != nil {
		t.Fatal(err)
	}
	rec := &sigRecorder{}
	e.Scaler = rec
	res, err := e.RunDay([]cluster.Workload{{Model: "DLRM-RMC1", Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec, tr, gs
}

// TestScalerSignalFeed: once per interval the scaler receives exactly
// that interval's window verdicts, the fleet's mean utilization, the
// next interval's forecast intensity (wrapping at the day boundary) and
// the day mean.
func TestScalerSignalFeed(t *testing.T) {
	res, rec, tr, gs := scalerFeedDay(t)
	if len(rec.sigs) != len(res.Steps) {
		t.Fatalf("IntervalEnd called %d times, want one per interval (%d)", len(rec.sigs), len(res.Steps))
	}
	if res.Steps[0].Windows == res.Steps[1].Windows {
		t.Fatalf("the query budget must vary the window count: %d and %d windows",
			res.Steps[0].Windows, res.Steps[1].Windows)
	}
	tl, err := gs.Compile("local", len(tr.LoadsQPS), tr.StepS, 0)
	if err != nil {
		t.Fatal(err)
	}
	var breached, clean int
	for i, st := range res.Steps {
		sig := rec.sigs[i]
		if len(sig.Breached) != st.Windows {
			t.Errorf("interval %d: %d verdicts, want one per window (%d)", i, len(sig.Breached), st.Windows)
		}
		n := 0
		for _, b := range sig.Breached {
			if b {
				n++
			}
		}
		if n != st.WindowsBreached {
			t.Errorf("interval %d: %d breached verdicts, stats count %d", i, n, st.WindowsBreached)
		}
		breached += n
		clean += len(sig.Breached) - n
		if sig.Utilization < 0 || sig.Utilization > 1 || (st.Queries > 0 && sig.Utilization == 0) {
			t.Errorf("interval %d: utilization %g", i, sig.Utilization)
		}
		if want := tl.At(i + 1); sig.NextGridGPerKWh != want {
			t.Errorf("interval %d: forecast %g, want next interval's %g", i, sig.NextGridGPerKWh, want)
		}
		if sig.GridMeanGPerKWh != tl.MeanG() {
			t.Errorf("interval %d: day mean %g, want %g", i, sig.GridMeanGPerKWh, tl.MeanG())
		}
	}
	if breached == 0 || clean == 0 {
		t.Fatalf("the day must mix breached (%d) and clean (%d) windows", breached, clean)
	}
	if rec.sigs[3].Utilization != rec.sigs[2].Utilization {
		t.Errorf("the idle hour must repeat the last utilization: %g, want %g",
			rec.sigs[3].Utilization, rec.sigs[2].Utilization)
	}
}

// TestIdleIntervalBillsIdleEnergy: an interval with no offered load
// still powers its provisioned servers, so it bills each live one its
// idle draw for the whole interval, and prices that energy in carbon.
func TestIdleIntervalBillsIdleEnergy(t *testing.T) {
	res, _, tr, _ := scalerFeedDay(t)
	st := res.Steps[3]
	if st.OfferedQPS != 0 || st.ActiveServers != 2 {
		t.Fatalf("hour 3 must offer nothing on 2 servers: %g QPS, %d servers", st.OfferedQPS, st.ActiveServers)
	}
	idleW := hw.ServerType("T2").IdleWatts()
	if want := float64(st.ActiveServers) * idleW * tr.StepS / 1e3; math.Abs(st.EnergyKJ-want) > 1e-9*want {
		t.Errorf("idle hour billed %g kJ, want %d servers x %g W x %g s = %g kJ",
			st.EnergyKJ, st.ActiveServers, idleW, tr.StepS, want)
	}
	if want := power.CarbonG(st.EnergyKJ, st.GridGPerKWh); st.CarbonG != want || want <= 0 {
		t.Errorf("idle hour carbon %g g, want %g g priced on its energy", st.CarbonG, want)
	}
}

// TestPowerCapThrottlesAndCapsEnergy: a powercap window must mark its
// intervals, hold the type's measured power under the budget, and
// surface only as degraded service the control plane reacts to
// through its ordinary latency signals.
func TestPowerCapThrottlesAndCapsEnergy(t *testing.T) {
	// 8 intervals of 600 s; cap T2 (60 servers, 175 W TDP each) to half
	// its aggregate TDP across intervals 2-5 (0.33h-0.83h).
	const budgetW = 5250.0
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 1200, 1600, 2000, 1600, 1200, 800, 600),
	}}
	run := func(scen string) DayResult {
		t.Helper()
		e, err := NewEngine(Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
			HeadroomR: 0.05, Scenario: scen, Options: testOpts()},
			WithFleet(testFleet()), WithTable(testTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunDay(ws)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	capped := run(`{"name":"cap","events":[{"kind":"powercap","type":"T2","watts":5250,"start_h":0.33,"end_h":0.84}]}`)
	base := run("")
	for _, s := range capped.Steps {
		inWindow := s.Index >= 2 && s.Index <= 4
		if inWindow != (s.PowerCappedTypes == 1) {
			t.Errorf("interval %d: PowerCappedTypes = %d (window=%v)", s.Index, s.PowerCappedTypes, inWindow)
		}
		if inWindow {
			if maxKJ := budgetW * 600 / 1e3; s.EnergyKJ > maxKJ+1e-9 {
				t.Errorf("interval %d: %g kJ exceeds the %g kJ budget", s.Index, s.EnergyKJ, maxKJ)
			}
		}
	}
	// The throttle shows up as latency, and the control plane may only
	// react through its normal signals — never see the cap directly.
	if capped.MeanP95MS < base.MeanP95MS {
		t.Errorf("capped day p95 %.2f ms below baseline %.2f ms — throttle had no effect",
			capped.MeanP95MS, base.MeanP95MS)
	}
	if capped.EnergyKJ >= base.EnergyKJ {
		t.Errorf("capped day used %g kJ, baseline %g — the cap must cut energy", capped.EnergyKJ, base.EnergyKJ)
	}
}
