package fleet

import (
	"reflect"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/hw"
	"hercules/internal/scenario"
)

// flatTrace is a steady load the test fleet serves comfortably, so any
// divergence from the baseline replay is attributable to the scenario.
// 10-minute intervals: interval i spans hours [i/6, (i+1)/6).
func flatTrace(qps float64, steps int) []cluster.Workload {
	loads := make([]float64, steps)
	for i := range loads {
		loads[i] = qps
	}
	return []cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(loads...)}}
}

func withScenario(t *testing.T, e *Engine, ws []cluster.Workload, sc scenario.Scenario) *Engine {
	t.Helper()
	if err := e.ApplyScenario(sc, ws); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestScenarioSpikeDivergesFromBaseline(t *testing.T) {
	ws := flatTrace(1000, 8)
	base, err := testEngine(PowerOfTwo, testOpts()).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{Name: "burst", Events: []scenario.Event{
		// Intervals 3-5 (midpoints 0.583h, 0.75h, 0.917h): a 6x spike
		// between the scheduled re-provisions at intervals 0 and 4.
		{Kind: scenario.Spike, StartH: 0.5, EndH: 1.0, Factor: 6},
	}}
	spiked, err := withScenario(t, testEngine(PowerOfTwo, testOpts()), ws, sc).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if spiked.Scenario != "burst" || base.Scenario != "baseline" {
		t.Fatalf("scenario labels %q / %q", spiked.Scenario, base.Scenario)
	}
	if base.SLAViolationMin > 0 {
		t.Fatalf("baseline must serve the flat day clean, got %.1f violation min", base.SLAViolationMin)
	}
	if spiked.SLAViolationMin <= base.SLAViolationMin {
		t.Fatalf("spike must add violation minutes: %.1f vs %.1f",
			spiked.SLAViolationMin, base.SLAViolationMin)
	}
	// The p99 series must visibly diverge inside the spike window and
	// agree before it (same seed, same traffic up to the event).
	if spiked.Steps[3].P99MS <= base.Steps[3].P99MS {
		t.Errorf("interval 3 p99 %.2f must exceed baseline %.2f",
			spiked.Steps[3].P99MS, base.Steps[3].P99MS)
	}
	if spiked.Steps[1].P99MS != base.Steps[1].P99MS {
		t.Errorf("pre-event interval 1 p99 %.2f must equal baseline %.2f",
			spiked.Steps[1].P99MS, base.Steps[1].P99MS)
	}
	if spiked.Steps[3].OfferedQPS <= base.Steps[3].OfferedQPS*5 {
		t.Errorf("offered load must reflect the spike: %.0f vs %.0f",
			spiked.Steps[3].OfferedQPS, base.Steps[3].OfferedQPS)
	}
}

func TestScenarioKillDegradesThenReprovisions(t *testing.T) {
	ws := flatTrace(2000, 8)
	sc := scenario.Scenario{Name: "rack-down", Events: []scenario.Event{
		// 55 of the 60 T2 servers die during intervals 3-5.
		{Kind: scenario.Kill, StartH: 0.5, EndH: 1.0, Type: "T2", Count: 55},
	}}
	res, err := withScenario(t, testEngine(PowerOfTwo, testOpts()), ws, sc).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[3].DeadServers != 55 || res.Steps[2].DeadServers != 0 {
		t.Fatalf("dead servers %d/%d, want 55 during and 0 before the event",
			res.Steps[3].DeadServers, res.Steps[2].DeadServers)
	}
	// Only 5 servers (1000 QPS capacity) survive a 2000-QPS load: the
	// kill interval must breach and drop.
	if res.Steps[3].ViolationMin == 0 || res.Steps[3].Drops == 0 {
		t.Errorf("kill interval must breach and drop (viol %.1f, drops %d)",
			res.Steps[3].ViolationMin, res.Steps[3].Drops)
	}
	// Health checks notice at the interval's end: interval 4 (a
	// scheduled boundary here) must re-provision against the degraded
	// availability and activate at most the 5 live servers.
	if !res.Steps[4].Reprovisioned {
		t.Fatal("interval 4 must re-provision")
	}
	if res.Steps[4].ActiveServers > 5 {
		t.Errorf("degraded re-provision activated %d servers, only 5 are alive",
			res.Steps[4].ActiveServers)
	}
	// After the restore (interval 6), the next re-provision must see
	// the full fleet again; by interval 7 at the latest the scenario's
	// recovery re-provision has run.
	last := res.Steps[7]
	if last.DeadServers != 0 {
		t.Errorf("servers must be restored by interval 7, %d still dead", last.DeadServers)
	}
	if last.ActiveServers <= 5 {
		t.Errorf("restored fleet must re-provision above the degraded size, got %d", last.ActiveServers)
	}
}

func TestScenarioDerateRaisesTailsSilently(t *testing.T) {
	ws := flatTrace(1000, 6)
	base, err := testEngine(LeastOutstanding, testOpts()).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{Name: "throttle", Events: []scenario.Event{
		{Kind: scenario.Derate, StartH: 0, EndH: 1, Factor: 0.5},
	}}
	slow, err := withScenario(t, testEngine(LeastOutstanding, testOpts()), ws, sc).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	// Half the service rate doubles the no-queueing latency floor.
	if slow.MeanP95MS < base.MeanP95MS*1.5 {
		t.Errorf("derated p95 %.2f must be well above baseline %.2f",
			slow.MeanP95MS, base.MeanP95MS)
	}
	// Derates are invisible to the control plane: same provisioning.
	for i, s := range slow.Steps {
		if s.DeadServers != 0 {
			t.Errorf("interval %d: derate must not report dead servers", i)
		}
		if s.ActiveServers != base.Steps[i].ActiveServers && !s.EarlyReprovision && !base.Steps[i].EarlyReprovision {
			t.Errorf("interval %d: derate changed scheduled provisioning %d -> %d",
				i, base.Steps[i].ActiveServers, s.ActiveServers)
		}
	}
}

func TestScenarioShedAccounting(t *testing.T) {
	ws := flatTrace(1200, 6)
	base, err := testEngine(RoundRobin, testOpts()).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{Name: "drill", Events: []scenario.Event{
		{Kind: scenario.Shed, StartH: 0, EndH: 1, Factor: 0.5},
	}}
	shed, err := withScenario(t, testEngine(RoundRobin, testOpts()), ws, sc).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if shed.TotalShed == 0 {
		t.Fatal("shed scenario recorded no shed queries")
	}
	if base.TotalShed != 0 {
		t.Fatal("baseline must not shed")
	}
	// A 50% Bernoulli thinning keeps roughly half the stream.
	frac := float64(shed.TotalShed) / float64(shed.TotalShed+shed.TotalQueries)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("shed fraction %.3f, want ~0.5", frac)
	}
	// Shed queries are not queue drops.
	if shed.TotalDrops > base.TotalDrops {
		t.Errorf("shedding must not increase queue drops: %d vs %d",
			shed.TotalDrops, base.TotalDrops)
	}
	var sumShed int
	for _, s := range shed.Steps {
		sumShed += s.Shed
	}
	if sumShed != shed.TotalShed {
		t.Errorf("per-interval shed sum %d != total %d", sumShed, shed.TotalShed)
	}
}

func TestScenarioMixShiftStressesCapacity(t *testing.T) {
	// Size-dependent service: 25 µs per ranked item, so a mix shift
	// toward bigger queries slows every server without moving QPS.
	sized := func(e *Engine) *Engine {
		e.Service = svcFunc(func(st, m string, size int, scale float64) float64 {
			return float64(size) * 25e-6
		})
		return e
	}
	ws := flatTrace(800, 6)
	base, err := sized(testEngine(PowerOfTwo, testOpts())).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{Name: "failover", Events: []scenario.Event{
		{Kind: scenario.MixShift, StartH: 0.5, EndH: 1, Factor: 2.5},
	}}
	shifted, err := withScenario(t, sized(testEngine(PowerOfTwo, testOpts())), ws, sc).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	// Same arrivals, heavier queries: offered QPS unchanged, tails up.
	if shifted.Steps[3].OfferedQPS != base.Steps[3].OfferedQPS {
		t.Errorf("mix shift must not change offered load: %.0f vs %.0f",
			shifted.Steps[3].OfferedQPS, base.Steps[3].OfferedQPS)
	}
	if shifted.Steps[3].P99MS < base.Steps[3].P99MS*1.5 {
		t.Errorf("shifted p99 %.2f must be well above baseline %.2f",
			shifted.Steps[3].P99MS, base.Steps[3].P99MS)
	}
}

func TestScenarioReplayDeterministic(t *testing.T) {
	ws := flatTrace(1500, 8)
	sc, err := scenario.Named("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	run := func() DayResult {
		res, err := withScenario(t, testEngine(WeightedHetero, testOpts()), ws, sc).RunDay(ws)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same seed + scenario must replay bit-identically")
	}
}

func TestApplyScenarioRejectsInvalid(t *testing.T) {
	ws := flatTrace(100, 4)
	e := testEngine(RoundRobin, testOpts())
	bad := scenario.Scenario{Events: []scenario.Event{{Kind: "nope", StartH: 0, EndH: 1}}}
	if err := e.ApplyScenario(bad, ws); err == nil {
		t.Error("invalid scenario accepted")
	}
	if err := e.ApplyScenario(scenario.Scenario{}, nil); err == nil {
		t.Error("empty workloads accepted")
	}
}

// TestFleetHealth pins the per-type resolution of kills, powercaps and
// their composition: survivors share the watt budget, a budget below
// TDP throttles the service rate, and a type the map does not hold
// runs at full speed.
func TestFleetHealth(t *testing.T) {
	e := &Engine{Fleet: hw.Fleet{Types: []hw.Server{hw.ServerType("T2")}, Counts: []int{10}}}
	tdp := hw.ServerType("T2").TDPWatts()
	for _, tc := range []struct {
		name string
		eff  scenario.Effects
		typ  string
		want typeHealth
	}{
		{"kill only", scenario.Effects{Killed: map[string]int{"T2": 4}},
			"T2", typeHealth{count: 10, alive: 6, speed: 1}},
		{"powercap only", scenario.Effects{PowerCapW: map[string]float64{"T2": 5 * tdp}},
			"T2", typeHealth{count: 10, alive: 10, speed: 0.5, capW: tdp / 2}},
		{"kill and powercap", scenario.Effects{Killed: map[string]int{"T2": 5}, PowerCapW: map[string]float64{"T2": 2.5 * tdp}},
			"T2", typeHealth{count: 10, alive: 5, speed: 0.5, capW: tdp / 2}},
		{"budget above TDP", scenario.Effects{PowerCapW: map[string]float64{"T2": 20 * tdp}},
			"T2", typeHealth{count: 10, alive: 10, speed: 1, capW: 2 * tdp}},
		{"type absent from the fleet", scenario.Effects{PowerCapW: map[string]float64{"T7": 100}},
			"T7", typeHealth{speed: 1}},
	} {
		hm := e.fleetHealth(tc.eff)
		got, ok := hm[tc.typ]
		if !ok {
			got.speed = hm.speed(tc.typ)
		}
		if got != tc.want {
			t.Errorf("%s: %s health = %+v, want %+v", tc.name, tc.typ, got, tc.want)
		}
	}
}
