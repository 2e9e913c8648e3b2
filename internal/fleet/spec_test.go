package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hercules/internal/cluster"
)

// TestDefaultSpecCarriesDefaultOptions is the drift guard: every
// consumer (CLIs, experiments, examples) derives engine tuning from
// DefaultSpec, and DefaultSpec must carry exactly DefaultOptions —
// one place to change a default, nowhere for copies to rot.
func TestDefaultSpecCarriesDefaultOptions(t *testing.T) {
	if got, want := DefaultSpec().Options, DefaultOptions(); got != want {
		t.Errorf("DefaultSpec().Options = %+v, want DefaultOptions() %+v", got, want)
	}
}

func TestSpecZeroValuesDeferToDefaults(t *testing.T) {
	e, err := NewEngine(Spec{}, WithTable(testTable()),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultSpec()
	if e.Spec.Fleet != def.Fleet || e.Spec.Router != def.Router || e.Spec.Policy != def.Policy {
		t.Errorf("zero spec normalized to %+v, want the DefaultSpec names", e.Spec)
	}
	if e.Opts != def.Options {
		t.Errorf("zero Options must become DefaultOptions, got %+v", e.Opts)
	}
	if e.Scaler == nil || e.Scaler.Name() != "breach" {
		t.Error("default scaler must be the breach autoscaler")
	}
	if e.Admission != nil {
		t.Error("default admission must be nil (admit everything)")
	}
	if e.Provisioner.OverProvisionR != def.HeadroomR {
		t.Errorf("headroom %v, want the default %v", e.Provisioner.OverProvisionR, def.HeadroomR)
	}
}

func TestNewEngineRejectsUnknownNames(t *testing.T) {
	base := Spec{Models: []string{"DLRM-RMC1"}}
	for _, tc := range []struct {
		mutate func(*Spec)
		frag   string
	}{
		{func(s *Spec) { s.Router = "warp" }, "unknown router"},
		{func(s *Spec) { s.Policy = "anarchy" }, "unknown policy"},
		{func(s *Spec) { s.Scaler = "vertical" }, "unknown autoscaler"},
		{func(s *Spec) { s.Admission = "vip" }, "unknown admission"},
		{func(s *Spec) { s.Fleet = "armada" }, "unknown fleet"},
		{func(s *Spec) { s.Scenario = "ragnarok" }, "unknown scenario"},
	} {
		spec := base
		tc.mutate(&spec)
		_, err := NewEngine(spec, WithTable(testTable()))
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("NewEngine(%+v) error %v, want %q", spec, err, tc.frag)
		}
	}
}

// TestScalerSelectableBySpec: the spec's scaler name decides the
// engine's autoscaling policy; "none" disables it.
func TestScalerSelectableBySpec(t *testing.T) {
	mk := func(name string) *Engine {
		e, err := NewEngine(Spec{Scaler: name, Models: []string{"DLRM-RMC1"}},
			WithFleet(testFleet()), WithTable(testTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if s := mk("prop").Scaler; s == nil || s.Name() != "prop" {
		t.Error("spec must select the proportional scaler by name")
	}
	if s := mk("none").Scaler; s != nil {
		t.Error("scaler \"none\" must disable autoscaling")
	}
	if _, ok := mk("prop").Scaler.(UtilizationObserver); !ok {
		t.Error("proportional scaler must observe utilization")
	}
}

// TestProportionalScalerReprovisions: under sustained overload the
// target-utilization scaler must trigger early re-provisions with
// extra headroom, like the breach scaler but from the utilization
// signal alone.
func TestProportionalScalerReprovisions(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(200, 2400, 2400, 2400, 2400, 2400, 2400, 2400),
	}}
	e := testEngine(PowerOfTwo, testOpts())
	e.Scaler = NewProportionalScaler()
	res, err := e.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scaler != "prop" {
		t.Errorf("day result records scaler %q, want prop", res.Scaler)
	}
	if res.AutoscaleEvents == 0 {
		t.Error("sustained overload must trigger the proportional scaler")
	}
	if res.EarlyReprovisions == 0 {
		t.Error("proportional trigger must cause early re-provisions")
	}
	// And the utilization boost must actually grow the fleet versus the
	// same day with no scaler at all.
	eOff := testEngine(PowerOfTwo, testOpts())
	eOff.Scaler = nil
	off, err := eOff.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAViolationMin >= off.SLAViolationMin {
		t.Errorf("prop scaler must claw back violation minutes: %v with vs %v without",
			res.SLAViolationMin, off.SLAViolationMin)
	}
}

// TestDeadlineAdmissionShedsUnderOverload: with the previous interval
// past its SLA, the deadline policy must shed at the door — and the
// shed traffic must show up as Shed accounting while relieving queue
// drops. The autoscaler is off in both runs so the stale allocation
// stays overloaded and admission control is the only defense (with it
// on, both policies rescue the fleet at the same boundary and the
// comparison shows nothing).
func TestDeadlineAdmissionShedsUnderOverload(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(200, 2400, 2400, 2400, 2400, 2400),
	}}
	eBase := testEngine(PowerOfTwo, testOpts())
	eBase.Scaler = nil
	base, err := eBase.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(PowerOfTwo, testOpts())
	e.Scaler = nil
	e.Admission = NewDeadlineAdmission()
	res, err := e.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admission != "deadline" {
		t.Errorf("day result records admission %q, want deadline", res.Admission)
	}
	if base.TotalShed != 0 {
		t.Fatal("baseline must not shed")
	}
	if res.TotalShed == 0 {
		t.Fatal("deadline admission must shed during the overload")
	}
	if res.Steps[1].Shed != 0 {
		t.Error("admission has no signal before the first overloaded interval completes")
	}
	if res.TotalDrops >= base.TotalDrops {
		t.Errorf("shedding at the door must relieve queue drops: %d vs %d without admission",
			res.TotalDrops, base.TotalDrops)
	}
}

// TestObserverSeesTheAggregatedStream: caller observers receive
// exactly the intervals DayResult aggregates, in order.
func TestObserverSeesTheAggregatedStream(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(500, 1000, 1500, 1000),
	}}
	var streamed []IntervalStats
	e := testEngine(WeightedHetero, testOpts())
	e.Observers = append(e.Observers, ObserverFunc(func(ist IntervalStats) {
		streamed = append(streamed, ist)
	}))
	res, err := e.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Steps) {
		t.Fatal("observer stream must equal DayResult.Steps")
	}
	// The aggregate is a pure fold of the stream: recompute a few
	// fields from what the observer saw.
	var q int
	var viol float64
	for _, ist := range streamed {
		q += ist.Queries
		viol += ist.ViolationMin
	}
	if q != res.TotalQueries || viol != res.SLAViolationMin {
		t.Errorf("fold of the stream (%d, %v) disagrees with the aggregate (%d, %v)",
			q, viol, res.TotalQueries, res.SLAViolationMin)
	}
}

// TestEngineWorkloadsFollowSpec: the synthesized day follows the
// spec's geometry and is deterministic in the seed.
func TestEngineWorkloadsFollowSpec(t *testing.T) {
	spec := Spec{Models: []string{"DLRM-RMC1"}, Days: 2, StepMin: 30, PeakQPS: 500}
	e, err := NewEngine(spec, WithFleet(testFleet()), WithTable(testTable()))
	if err != nil {
		t.Fatal(err)
	}
	ws := e.Workloads()
	if len(ws) != 1 {
		t.Fatalf("workloads = %d, want 1", len(ws))
	}
	if got := ws[0].Trace.Steps(); got != 2*48 {
		t.Errorf("2 days at 30-minute steps = %d intervals, want 96", got)
	}
	var peak float64
	for _, l := range ws[0].Trace.LoadsQPS {
		peak = max(peak, l)
	}
	if peak < 400 || peak > 600 {
		t.Errorf("peak %v far from the requested 500 QPS", peak)
	}
	if !reflect.DeepEqual(ws, e.Workloads()) {
		t.Error("Workloads must be deterministic")
	}
	// PeakQPS 0 auto-sizes from the table.
	spec.PeakQPS = 0
	eAuto, err := NewEngine(spec, WithFleet(testFleet()), WithTable(testTable()))
	if err != nil {
		t.Fatal(err)
	}
	wsAuto := eAuto.Workloads()
	var autoPeak float64
	for _, l := range wsAuto[0].Trace.LoadsQPS {
		autoPeak = max(autoPeak, l)
	}
	// 60 T2 servers at 200 QPS, 45% target: ~5400 QPS.
	if autoPeak < 3000 || autoPeak > 7000 {
		t.Errorf("auto-sized peak %v implausible for the test fleet", autoPeak)
	}
}

// TestLegacyShardOptionsDecode: spec files written while Options had a
// per-model shard cap and a sequential switch still decode (unknown
// keys are ignored) and replay exactly like the same spec without
// them.
func TestLegacyShardOptionsDecode(t *testing.T) {
	const base = `{"router":"p2c","policy":"greedy","models":["DLRM-RMC1"],"headroom_r":0.05,
		"options":{"queue_cap":16,"slice_s":4,"window_s":1,"reprovision_every":4,
		"max_queries_per_interval":150000,"max_batch":1,"seed":1%s}}`
	replay := func(options string) DayResult {
		var spec Spec
		if err := json.Unmarshal([]byte(fmt.Sprintf(base, options)), &spec); err != nil {
			t.Fatal(err)
		}
		res, err := newReplayEngine(t, spec).RunDay(goldenWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := replay("")
	if got := replay(`,"shards":4,"sequential":true`); !reflect.DeepEqual(got, want) {
		t.Error("legacy shards/sequential keys changed the replay")
	}
	if want.TotalQueries == 0 {
		t.Fatal("replay served nothing")
	}
}
