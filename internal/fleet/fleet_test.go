package fleet

import (
	"math"
	"reflect"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/sim"
	"hercules/internal/stats"
	"hercules/internal/workload"
)

// svcFunc adapts a function to ServiceSource for stubbed tests.
type svcFunc func(serverType, modelName string, size int, scale float64) float64

func (f svcFunc) ServiceS(st, m string, size int, scale float64) float64 {
	return f(st, m, size, scale)
}

// constInstances builds n instances of one type with a constant service
// time and unit concurrency.
func constInstances(n int, serverType string, svcS, weight float64, queueCap int) []*Instance {
	out := make([]*Instance, n)
	for i := range out {
		out[i] = NewInstance(i, serverType, "DLRM-RMC1", weight, 1, queueCap,
			func(size int, scale float64) float64 { return svcS })
	}
	return out
}

func poissonQueries(rateQPS, horizonS float64, seed int64) []workload.Query {
	m := model.DLRMRMC1(model.Prod)
	return workload.NewGenerator(m, rateQPS, seed).Until(horizonS)
}

func p95ms(lats []float64) float64 {
	s := stats.NewSample(len(lats))
	for _, l := range lats {
		s.Add(l * 1e3)
	}
	return s.P95()
}

func TestRouterParseRoundTrip(t *testing.T) {
	for _, k := range AllRouters {
		got, err := ParseRouter(k)
		if err != nil || got != k {
			t.Errorf("ParseRouter(%q) = %v, %v", k, got, err)
		}
	}
	// Long aliases normalize to canonical registered names.
	if got, err := ParseRouter(" Round-Robin "); err != nil || got != RoundRobin {
		t.Errorf("ParseRouter(alias) = %q, %v", got, err)
	}
	if _, err := ParseRouter("nope"); err == nil {
		t.Error("ParseRouter must reject unknown names")
	}
}

func TestQueueOverflowDropsAndAccounting(t *testing.T) {
	// One channel, two waiting slots, 10 ms service, a burst of 10
	// simultaneous arrivals. Unbatched, exactly 3 are admitted, with
	// FCFS latencies 10, 20, 30 ms. Batching up to 4 admits
	// max(1, 4)+2 = 6: the first four dispatch as a full 40 ms batch,
	// and the end-of-slice flush launches the last two when the channel
	// frees at 40 ms, completing at 60 ms.
	svc := func(int, float64) float64 { return 0.010 }
	for _, tc := range []struct {
		name     string
		maxBatch int
		want     []float64
	}{
		{"unbatched", 1, []float64{0.010, 0.020, 0.030}},
		{"batched", 4, []float64{0.040, 0.040, 0.040, 0.040, 0.060, 0.060}},
	} {
		in := NewInstance(0, "T2", "DLRM-RMC1", 100, 1, 2, svc)
		if tc.maxBatch > 1 {
			in.EnableBatching(tc.maxBatch, 0.002, nil)
		}
		queries := make([]workload.Query, 10)
		for i := range queries {
			queries[i] = workload.Query{ID: int64(i), ArrivalS: 0, Size: 100, SparseScale: 1}
		}
		res := ReplaySlice(RoundRobin, []*Instance{in}, queries, 1)
		served := len(tc.want)
		if res.Served != served || res.Dropped != len(queries)-served {
			t.Fatalf("%s: served=%d dropped=%d, want %d/%d", tc.name, res.Served, res.Dropped, served, len(queries)-served)
		}
		if res.Served+res.Dropped != len(queries) {
			t.Fatalf("%s: accounting leak: %d+%d != %d", tc.name, res.Served, res.Dropped, len(queries))
		}
		if len(res.LatS) != res.Served {
			t.Fatalf("%s: %d latencies for %d served queries", tc.name, len(res.LatS), res.Served)
		}
		if in.Served != res.Served || in.Dropped != res.Dropped {
			t.Fatalf("%s: instance counters %d/%d disagree", tc.name, in.Served, in.Dropped)
		}
		for i, l := range res.LatS {
			if math.Abs(l-tc.want[i]) > 1e-9 {
				t.Errorf("%s: latency[%d] = %v, want %v", tc.name, i, l, tc.want[i])
			}
		}
	}
}

func TestP2CBeatsRoundRobinOnImbalance(t *testing.T) {
	// Four fast servers (2 ms) and one 20x slower straggler. Round
	// robin blindly sends 20% of traffic to the straggler, which can
	// only absorb ~1.2% — its queue saturates and the fleet p95
	// explodes. State-aware policies route around it.
	build := func() []*Instance {
		insts := constInstances(4, "fast", 0.002, 500, 64)
		slow := NewInstance(4, "slow", "DLRM-RMC1", 25, 1, 64,
			func(int, float64) float64 { return 0.040 })
		return append(insts, slow)
	}
	queries := poissonQueries(1200, 5, 7)
	// A query violates when it is dropped or exceeds the 20 ms SLA;
	// judging served-only tails would reward round robin for hiding
	// the straggler's backlog behind queue drops.
	violFrac := func(res SliceResult) float64 {
		bad := res.Dropped
		for _, l := range res.LatS {
			if l > 0.020 {
				bad++
			}
		}
		return float64(bad) / float64(len(queries))
	}
	viol := make(map[string]float64, len(AllRouters))
	drops := make(map[string]int, len(AllRouters))
	for _, k := range AllRouters {
		res := ReplaySlice(k, build(), queries, 11)
		if res.Served == 0 {
			t.Fatalf("%v served nothing", k)
		}
		viol[k] = violFrac(res)
		drops[k] = res.Dropped
	}
	if drops[RoundRobin] == 0 {
		t.Error("round robin must overflow the straggler's queue")
	}
	for _, k := range []string{LeastOutstanding, PowerOfTwo, WeightedHetero} {
		if viol[k] >= viol[RoundRobin] {
			t.Errorf("%v violation rate %.3f must beat round-robin %.3f",
				k, viol[k], viol[RoundRobin])
		}
	}
	if viol[PowerOfTwo] > 0.5*viol[RoundRobin] {
		t.Errorf("p2c (%.3f) should roughly halve or better round-robin's violations (%.3f)",
			viol[PowerOfTwo], viol[RoundRobin])
	}
}

func TestReplayDeterministic(t *testing.T) {
	queries := poissonQueries(800, 3, 3)
	a := ReplaySlice(PowerOfTwo, constInstances(6, "T2", 0.004, 250, 32), queries, 5)
	b := ReplaySlice(PowerOfTwo, constInstances(6, "T2", 0.004, 250, 32), queries, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the same replay")
	}
}

// breaches is a ScalerSignal carrying only window verdicts.
func breaches(verdicts ...bool) ScalerSignal { return ScalerSignal{Breached: verdicts} }

// breachRun is a ScalerSignal of n breached windows.
func breachRun(n int) ScalerSignal {
	sig := ScalerSignal{Breached: make([]bool, n)}
	for i := range sig.Breached {
		sig.Breached[i] = true
	}
	return sig
}

func TestAutoscalerWindowLogic(t *testing.T) {
	a := NewAutoscaler()
	a.Patience = 3
	// The clean window resets the streak; the last breach carries over.
	if early, _ := a.IntervalEnd(breaches(true, true, false, true)); early {
		t.Fatal("must not trigger below patience")
	}
	// The streak spans the interval boundary: 1 + 2 reaches patience.
	early, extra := a.IntervalEnd(breaches(true, true))
	if !early || extra != a.BoostR {
		t.Fatalf("trigger expected: early=%v extra=%v", early, extra)
	}
	if a.Events != 1 {
		t.Fatalf("events = %d", a.Events)
	}
	// The boost is in force for HoldIntervals intervals total: the
	// triggered re-provision plus HoldIntervals-1 quiet ones.
	for i := 0; i < a.HoldIntervals-1; i++ {
		if early, extra = a.IntervalEnd(ScalerSignal{}); early || extra != a.BoostR {
			t.Fatalf("hold interval %d: early=%v extra=%v", i, early, extra)
		}
	}
	if _, extra = a.IntervalEnd(ScalerSignal{}); extra != 0 {
		t.Fatalf("boost must decay, extra=%v", extra)
	}
}

// TestAutoscalerBoostWindowExact pins the documented boost window: a
// trigger puts BoostR in force for exactly HoldIntervals consecutive
// IntervalEnd returns (the triggering one included), never
// HoldIntervals+1.
func TestAutoscalerBoostWindowExact(t *testing.T) {
	for _, hold := range []int{1, 2, 4} {
		a := NewAutoscaler()
		a.HoldIntervals = hold
		sig := breachRun(a.Patience)
		boosted := 0
		for i := 0; i < hold+3; i++ {
			if _, extra := a.IntervalEnd(sig); extra > 0 {
				boosted++
			}
			sig = ScalerSignal{}
		}
		if boosted != hold {
			t.Errorf("HoldIntervals=%d: boost in force for %d intervals", hold, boosted)
		}
	}
}

// testTable builds a one-pair synthetic efficiency table: T2 serves
// RMC1 at 200 QPS for 300 W provisioned.
func testTable() *profiler.Table {
	tb := &profiler.Table{}
	tb.Set(profiler.Entry{
		Model: "DLRM-RMC1", Server: "T2",
		QPS: 200, PowerW: 300, QPSPerWatt: 200.0 / 300,
	})
	return tb
}

func testFleet() hw.Fleet {
	return hw.Fleet{Types: []hw.Server{hw.ServerType("T2")}, Counts: []int{60}}
}

// stepTrace is a hand-built trace with the given loads at 10-minute
// intervals.
func stepTrace(loads ...float64) workload.DiurnalTrace {
	return workload.DiurnalTrace{Service: "test", StepS: 600, LoadsQPS: loads}
}

func testEngine(router string, opts Options) *Engine {
	// 5 ms constant service — well inside RMC1's 20 ms SLA, so a
	// provisioned fleet has real headroom and does not breach; with the
	// 200-QPS profiled capacity the engine calibrates concurrency 1, so
	// each server tops out at 200 QPS and only genuine overload shows
	// up as queueing, breach and drops.
	// HeadroomR 0.05 pins the cluster layer's interval headroom the
	// pre-redesign test engine ran with (the goldens were recorded at
	// it); production specs default to 0.15 serving headroom.
	e, err := NewEngine(Spec{Router: router, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05, Options: opts},
		WithFleet(testFleet()), WithTable(testTable()),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
	if err != nil {
		panic(err)
	}
	return e
}

func testOpts() Options {
	opts := DefaultOptions()
	opts.SliceS = 4
	opts.QueueCap = 16
	opts.Seed = 1
	return opts
}

func TestAutoscalerTriggersEarlyReprovision(t *testing.T) {
	// Load provisioned at interval 0 (400 QPS), then a 6x surge the
	// scheduled re-provisioning (every 4 intervals) would leave
	// unanswered for 30 minutes. The autoscaler must observe the
	// breached windows and re-provision at the next interval boundary.
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(200, 2400, 2400, 2400, 2400, 2400, 2400, 2400),
	}}
	e := testEngine(PowerOfTwo, testOpts())
	res, err := e.RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoscaleEvents == 0 {
		t.Fatal("surge must trigger the autoscaler")
	}
	if res.EarlyReprovisions == 0 {
		t.Fatal("trigger must cause an early (unscheduled) re-provision")
	}
	var earlyIdx = -1
	for _, s := range res.Steps {
		if s.EarlyReprovision {
			if s.Index%e.Spec.Options.ReprovisionEvery == 0 {
				t.Errorf("interval %d is a scheduled boundary, not early", s.Index)
			}
			earlyIdx = s.Index
			break
		}
	}
	if earlyIdx < 0 {
		t.Fatal("no early re-provision interval recorded")
	}
	// The surge interval itself must have hurt: violations and drops.
	surge := res.Steps[1]
	if surge.ViolationMin == 0 {
		t.Error("surge interval must record SLA-violation minutes")
	}
	if surge.Drops == 0 {
		t.Error("a 6x overload against 16-slot queues must drop queries")
	}
	// After re-provisioning for the surge the fleet must be bigger.
	if res.Steps[earlyIdx].ActiveServers <= res.Steps[1].ActiveServers {
		t.Errorf("re-provision must grow the fleet: %d -> %d servers",
			res.Steps[1].ActiveServers, res.Steps[earlyIdx].ActiveServers)
	}
	// And the boost must be recorded.
	if !res.Steps[earlyIdx].Boosted {
		t.Error("early re-provision must carry the autoscaler boost")
	}
}

// TestParallelMatchesSequential: a replay on one worker (GOMAXPROCS 1)
// and on eight must be bit-identical.
func TestParallelMatchesSequential(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 1200, 1600, 2000, 1600, 1200, 800, 600),
	}}
	run := func(procs int) DayResult {
		var res DayResult
		atProcs(procs, func() {
			var err error
			if res, err = testEngine(LeastOutstanding, testOpts()).RunDay(ws); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel replay must be bit-identical to sequential:\nseq: %+v\npar: %+v",
			seq, par)
	}
	if seq.TotalQueries == 0 {
		t.Fatal("replay served nothing")
	}
}

func TestRunDayAccounting(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(500, 1000, 1500, 1000, 500, 250),
	}}
	res, err := testEngine(WeightedHetero, testOpts()).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 6 {
		t.Fatalf("intervals = %d, want 6", len(res.Steps))
	}
	if res.TotalQueries <= 0 {
		t.Fatal("no queries replayed")
	}
	if res.DropFrac < 0 || res.DropFrac > 1 {
		t.Fatalf("drop fraction %v out of range", res.DropFrac)
	}
	if res.EnergyKJ <= 0 || res.ProvisionedEnergyKJ <= 0 {
		t.Fatalf("energy must be positive: measured %v provisioned %v",
			res.EnergyKJ, res.ProvisionedEnergyKJ)
	}
	if res.EnergyKJ > res.ProvisionedEnergyKJ*1.01 {
		t.Errorf("measured energy %v exceeds provisioned budget %v",
			res.EnergyKJ, res.ProvisionedEnergyKJ)
	}
	if res.Reprovisions == 0 {
		t.Fatal("interval 0 must provision")
	}
	var qsum, dsum int
	for _, s := range res.Steps {
		qsum += s.Queries
		dsum += s.Drops
		if s.Windows > 0 && s.WindowsBreached > s.Windows {
			t.Errorf("interval %d: breached %d > windows %d", s.Index, s.WindowsBreached, s.Windows)
		}
	}
	if qsum != res.TotalQueries || dsum != res.TotalDrops {
		t.Fatalf("per-interval sums (%d, %d) disagree with totals (%d, %d)",
			qsum, dsum, res.TotalQueries, res.TotalDrops)
	}
}

// TestZeroLoadDay: a day that offers nothing replays nothing (no
// queries, windows, servers, energy, tails or violations) under every
// built-in latency and utilization scaler, and no scaler fires on the
// empty verdicts it is handed.
func TestZeroLoadDay(t *testing.T) {
	ws := []cluster.Workload{{Model: "DLRM-RMC1", Trace: stepTrace(0, 0, 0, 0, 0, 0)}}
	for _, name := range []string{"breach", "prop", "none"} {
		e, err := NewEngine(Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
			Scaler: name, HeadroomR: 0.05, Options: testOpts()},
			WithFleet(testFleet()), WithTable(testTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		var rec *sigRecorder
		if e.Scaler != nil {
			rec = &sigRecorder{inner: e.Scaler}
			e.Scaler = rec
		}
		res, err := e.RunDay(ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) != 6 {
			t.Fatalf("%s: %d intervals, want 6", name, len(res.Steps))
		}
		for _, st := range res.Steps {
			if st.Queries != 0 || st.Drops != 0 || st.Shed != 0 || st.Windows != 0 ||
				st.ActiveServers != 0 || st.EnergyKJ != 0 || st.P99MS != 0 || st.ViolationMin != 0 {
				t.Errorf("%s: interval %d is not idle: %+v", name, st.Index, st)
			}
		}
		if res.AutoscaleEvents != 0 {
			t.Errorf("%s: %d autoscale events on an idle day", name, res.AutoscaleEvents)
		}
		if rec == nil {
			continue
		}
		if len(rec.sigs) != len(res.Steps) {
			t.Fatalf("%s: IntervalEnd called %d times, want %d", name, len(rec.sigs), len(res.Steps))
		}
		for i, sig := range rec.sigs {
			if len(sig.Breached) != 0 {
				t.Errorf("%s: interval %d handed %d verdicts, want none", name, i, len(sig.Breached))
			}
		}
	}
}

// TestBusyTimeClippedToSlice is the regression test for the busy-time
// over-accounting bug: a long query admitted near the slice boundary
// must contribute only the channel-seconds it serves inside the slice,
// not its full service time (which Utilization's clamp at 1 used to
// hide for saturated instances).
func TestBusyTimeClippedToSlice(t *testing.T) {
	in := NewInstance(0, "T2", "DLRM-RMC1", 100, 1, 4,
		func(int, float64) float64 { return 10.0 }) // 10 s service
	in.ResetSlice(1.0)
	if _, drop := in.Arrive(0.5, 100, 1); drop {
		t.Fatal("query must be admitted")
	}
	// The query occupies the channel from 0.5 s to 10.5 s; only 0.5 s
	// falls inside the 1 s slice.
	if got := in.Utilization(1.0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.5 (busy clipped to the slice)", got)
	}
	// Reset() keeps the legacy unbounded horizon for raw ReplaySlice use.
	in.Reset()
	in.Arrive(0.5, 100, 1)
	if got := in.Utilization(1.0); got != 1 {
		t.Fatalf("unclipped utilization = %v, want the saturated clamp 1", got)
	}
}

// TestBatchingCoalesces checks the batcher's dispatch arithmetic: a
// full batch dispatches immediately and is priced by the efficiency
// curve; a partial batch dispatches at its wait-window deadline.
func TestBatchingCoalesces(t *testing.T) {
	eff := []float64{1, 1, 0.75, 0.6, 0.5} // eff[4] = 0.5
	mk := func() *Instance {
		in := NewInstance(0, "T2", "DLRM-RMC1", 100, 1, 16,
			func(int, float64) float64 { return 0.010 })
		in.EnableBatching(4, 0.005, eff)
		in.Reset()
		return in
	}
	// Four simultaneous arrivals fill the batch: one dispatch at t=0,
	// service 0.5 * 4 * 10ms = 20 ms, every member done at 20 ms.
	in := mk()
	var out []Completion
	for i := 0; i < 4; i++ {
		var drop bool
		out, drop = in.ArriveBatched(int64(i)+1, 0, 100, 1, out)
		if drop {
			t.Fatalf("arrival %d dropped", i)
		}
	}
	if len(out) != 4 {
		t.Fatalf("full batch emitted %d completions, want 4", len(out))
	}
	for _, c := range out {
		if math.Abs(c.DoneS-0.020) > 1e-12 {
			t.Errorf("completion at %v, want 0.020", c.DoneS)
		}
	}
	if in.Served != 4 || in.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d", in.Served, in.Dropped)
	}
	// Two arrivals then a long gap: the window expires at 5 ms, so the
	// next arrival first flushes the pair (dispatch at 0.005, service
	// 0.75 * 20ms = 15 ms -> done at 0.020).
	in = mk()
	out = out[:0]
	out, _ = in.ArriveBatched(1, 0, 100, 1, out)
	out, _ = in.ArriveBatched(2, 0.001, 100, 1, out)
	if len(out) != 0 {
		t.Fatalf("forming batch must not emit completions, got %d", len(out))
	}
	out, _ = in.ArriveBatched(3, 0.1, 100, 1, out)
	if len(out) != 2 {
		t.Fatalf("window expiry must flush the pair, got %d completions", len(out))
	}
	if math.Abs(out[0].DoneS-0.020) > 1e-12 || out[0].ArrivalS != 0 {
		t.Errorf("flushed completion %+v, want dispatch at deadline 0.005 + 15ms", out[0])
	}
	// The third query is still forming; FlushPending drains it at its
	// own deadline (0.1 + 0.005), service 10 ms.
	out = in.FlushPending(out[:0])
	if len(out) != 1 || math.Abs(out[0].DoneS-0.115) > 1e-12 {
		t.Fatalf("end-of-slice flush: %+v, want done at 0.115", out)
	}
}

// TestOutstandingFlushesDueBatches: a forming batch whose launch
// instant has passed must stop counting as outstanding load the
// moment any router inspects the instance — phantom pending members
// would make state-aware routers route around a genuinely idle server
// — and the launched batch's completions must still surface through
// the next drain.
func TestOutstandingFlushesDueBatches(t *testing.T) {
	in := NewInstance(0, "T2", "DLRM-RMC1", 100, 1, 8,
		func(int, float64) float64 { return 0.010 })
	in.EnableBatching(4, 0.002, nil)
	in.Reset()
	if _, drop := in.ArriveBatched(1, 0, 100, 1, nil); drop {
		t.Fatal("query dropped")
	}
	// Before the window expires the member is pending.
	if got := in.Outstanding(0.001); got != 1 {
		t.Fatalf("outstanding before launch = %d, want 1", got)
	}
	// After launch (0.002) the batch is in service until 0.012.
	if got := in.Outstanding(0.005); got != 1 {
		t.Fatalf("outstanding in service = %d, want 1", got)
	}
	if got := in.Outstanding(0.020); got != 0 {
		t.Fatalf("outstanding after completion = %d, want 0 (due batch must have launched)", got)
	}
	// The completion emitted by the inspection-triggered launch must
	// surface at the next drain, with the launch-instant timing.
	out := in.FlushPending(nil)
	if len(out) != 1 || math.Abs(out[0].DoneS-0.012) > 1e-12 {
		t.Fatalf("buffered completion %+v, want done at 0.012", out)
	}
	if in.Served != 1 || in.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d", in.Served, in.Dropped)
	}
}

// TestBatchedCapacityRule checks the batched admission bound: a
// batching instance holds up to Concurrency*MaxBatch in service plus
// QueueCap forming/waiting, and drops beyond that.
func TestBatchedCapacityRule(t *testing.T) {
	in := NewInstance(0, "T2", "DLRM-RMC1", 100, 1, 2,
		func(int, float64) float64 { return 0.010 })
	in.EnableBatching(4, 0.005, nil)
	in.Reset()
	var out []Completion
	admitted, dropped := 0, 0
	for i := 0; i < 10; i++ {
		var drop bool
		out, drop = in.ArriveBatched(int64(i)+1, 0, 100, 1, out[:0])
		if drop {
			dropped++
		} else {
			admitted++
		}
	}
	// Capacity is 1*4 in service + 2 waiting = 6.
	if admitted != 6 || dropped != 4 {
		t.Fatalf("admitted/dropped = %d/%d, want 6/4", admitted, dropped)
	}
	if in.Served+len(in.pendArr) != admitted || in.Dropped != dropped {
		t.Fatalf("instance counters disagree: served=%d pending=%d dropped=%d",
			in.Served, len(in.pendArr), in.Dropped)
	}
}

// TestBatchedParallelMatchesSequential extends the determinism claim
// to the dynamic-batching replay loop: with MaxBatch > 1 the replay on
// eight workers must stay bit-identical to the one on a single worker.
func TestBatchedParallelMatchesSequential(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 1600, 2400, 1600, 800, 400),
	}}
	run := func(procs int) DayResult {
		opts := testOpts()
		opts.MaxBatch = 4
		opts.BatchWaitS = 0.004
		var res DayResult
		atProcs(procs, func() {
			var err error
			if res, err = testEngine(WeightedHetero, opts).RunDay(ws); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	seq, par1, par2 := run(1), run(8), run(8)
	if !reflect.DeepEqual(par1, par2) {
		t.Fatal("two batched parallel replays with the same seed diverged")
	}
	if !reflect.DeepEqual(seq, par1) {
		t.Fatalf("batched parallel replay must match sequential:\nseq: %+v\npar: %+v", seq, par1)
	}
	if seq.TotalQueries == 0 {
		t.Fatal("batched replay served nothing")
	}
}

// TestMaxBatchOneMatchesUnbatched: MaxBatch=1 must take the original
// per-query path and reproduce the unbatched replay exactly.
func TestMaxBatchOneMatchesUnbatched(t *testing.T) {
	ws := []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(500, 1000, 1500, 1000),
	}}
	base, err := testEngine(PowerOfTwo, testOpts()).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.MaxBatch = 1
	opts.BatchWaitS = 0.010 // must be inert at MaxBatch 1
	one, err := testEngine(PowerOfTwo, opts).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, one) {
		t.Fatalf("MaxBatch=1 replay diverged from the unbatched replay:\nbase: %+v\none: %+v", base, one)
	}
}

func TestSimServiceMemoizesAndIsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the per-server simulator")
	}
	tb := &profiler.Table{}
	tb.Set(profiler.Entry{Model: "DLRM-RMC1", Server: "T2", QPS: 400, PowerW: 200})
	svc := NewSimService(tb)
	a := svc.ServiceS("T2", "DLRM-RMC1", 100, 1.0)
	if a <= 0 || math.IsInf(a, 0) {
		t.Fatalf("service time %v not positive-finite", a)
	}
	if b := svc.ServiceS("T2", "DLRM-RMC1", 100, 1.0); b != a {
		t.Fatalf("memo miss: %v != %v", a, b)
	}
	// Bigger queries cost more.
	big := svc.ServiceS("T2", "DLRM-RMC1", 900, 1.0)
	if big <= a {
		t.Errorf("900-item query (%v s) must cost more than 100-item (%v s)", big, a)
	}
	// Unknown pairs are infinite (dropped), not invented.
	if v := svc.ServiceS("T9", "nope", 100, 1.0); !math.IsInf(v, 1) {
		t.Errorf("unknown pair service = %v, want +Inf", v)
	}
}

// TestScaleZeroHasOwnBucket is the regression test for the scale-0
// clamp: a query with no pooled work (sparse scale 0) must be priced
// at scale 0, not silently sampled at the 0.125 bucket, and the grid
// value must match the simulator evaluated directly at scale 0.
func TestScaleZeroHasOwnBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the per-server simulator")
	}
	tb := &profiler.Table{}
	tb.Set(profiler.Entry{Model: "DLRM-RMC1", Server: "T2", QPS: 400, PowerW: 200})
	svc := NewSimService(tb)
	zero := svc.ServiceS("T2", "DLRM-RMC1", 100, 0)
	eighth := svc.ServiceS("T2", "DLRM-RMC1", 100, 0.125)
	if math.IsInf(zero, 0) || zero <= 0 {
		t.Fatalf("scale-0 service = %v, want positive-finite", zero)
	}
	if zero >= eighth {
		t.Errorf("a dense query (%v s) must be cheaper than one pooling at scale 0.125 (%v s)",
			zero, eighth)
	}
	// The grid must agree with the simulator evaluated directly at the
	// same bucket representative and scale 0.
	m, err := model.ByName("DLRM-RMC1", model.Prod)
	if err != nil {
		t.Fatal(err)
	}
	srv := sim.New(hw.ServerType("T2"), m)
	q := workload.Query{ID: 1, ArrivalS: 0, Size: sizeBucket(100), SparseScale: 0}
	res, err := srv.Simulate(DefaultServingConfig(hw.ServerType("T2")), []workload.Query{q}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct := res.MeanMS / 1e3; math.Abs(zero-direct) > 1e-12*math.Abs(direct) {
		t.Errorf("grid scale-0 value %v disagrees with direct simulation %v", zero, direct)
	}
}

// TestPairBatchEffCurve sanity-checks the batching-efficiency curves
// the sim-backed source measures: eff[1] is 1, larger batches are
// never priced worse than back-to-back solo service nor better than
// their longest member, and a real pair shows a genuine economy.
func TestPairBatchEffCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the per-server simulator")
	}
	tb := &profiler.Table{}
	tb.Set(profiler.Entry{Model: "DLRM-RMC1", Server: "T2", QPS: 400, PowerW: 200})
	svc := NewSimService(tb)
	const maxBatch = 16
	eff := svc.PairBatchEff("T2", "DLRM-RMC1", maxBatch)
	if len(eff) != maxBatch+1 {
		t.Fatalf("curve length %d, want %d", len(eff), maxBatch+1)
	}
	if eff[1] != 1 {
		t.Fatalf("eff[1] = %v, want 1", eff[1])
	}
	for n := 2; n <= maxBatch; n++ {
		if eff[n] > 1 || eff[n] < 1/float64(n) {
			t.Errorf("eff[%d] = %v outside [1/n, 1]", n, eff[n])
		}
	}
	if eff[maxBatch] >= 1 {
		t.Errorf("a full batch must amortize per-batch overheads: eff[%d] = %v", maxBatch, eff[maxBatch])
	}
	// Unknown pairs cannot be priced.
	if got := svc.PairBatchEff("T9", "nope", maxBatch); got != nil {
		t.Errorf("unknown pair curve = %v, want nil", got)
	}
	// MaxBatch 1 needs no curve.
	if got := svc.PairBatchEff("T2", "DLRM-RMC1", 1); got != nil {
		t.Errorf("maxBatch 1 curve = %v, want nil", got)
	}
}
