package fleet

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// The tracing tests pin the tentpole claims of the telemetry layer:
// tracing never perturbs the replay (identical DayResult traced vs
// untraced), the emitted trace is a pure function of the spec (pinned
// by a committed golden here and across worker counts by
// workers_test.go), and every traced router makes exactly the
// decisions its untraced Pick would.

// tracedRun replays goldenTraceWorkloads on a testEngine with 1-in-64
// sampling and an NDJSON sink; it returns the trace bytes and the
// DayResult.
func tracedRun(t *testing.T) ([]byte, DayResult) {
	t.Helper()
	opts := testOpts()
	opts.TraceSample = 64
	e := testEngine(PowerOfTwo, opts)
	var buf bytes.Buffer
	e.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf))
	res, err := e.RunDay(goldenTraceWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// goldenTraceWorkloads is a deliberately small day: at 200/400/600
// QPS the greedy provisioner never allocates more than 4 T2 servers
// per interval, which keeps the committed golden trace small.
func goldenTraceWorkloads() []cluster.Workload {
	return []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(200, 400, 600),
	}}
}

// TestGoldenTraceByteIdentity: the sampled trace must match the
// committed golden byte for byte — the proof that trace emission is
// deterministic, not merely "deterministic up to goroutine
// scheduling".
func TestGoldenTraceByteIdentity(t *testing.T) {
	if os.Getenv("REGEN_GOLDEN_TRACE") != "" {
		got, _ := tracedRun(t)
		if err := os.WriteFile("testdata/golden_trace.ndjson", got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated golden trace: %d bytes", len(got))
	}
	want, err := os.ReadFile("testdata/golden_trace.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tracedRun(t); !bytes.Equal(got, want) {
		t.Errorf("trace diverged from golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestTracingDoesNotPerturbReplay: enabling the tracer — even at full
// sampling — must leave the DayResult bit-identical to the untraced
// replay. Tracing reads the replay; it never participates in it.
func TestTracingDoesNotPerturbReplay(t *testing.T) {
	base := testOpts()
	untraced, err := testEngine(PowerOfTwo, base).RunDay(goldenTraceWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []int{1, 16} {
		opts := base
		opts.TraceSample = sample
		e := testEngine(PowerOfTwo, opts)
		sink := &telemetry.CountSink{}
		e.Tracer.AddSink(sink)
		traced, err := e.RunDay(goldenTraceWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, untraced) {
			t.Errorf("sample 1/%d: tracing changed the DayResult", sample)
		}
		if sink.Total == 0 {
			t.Errorf("sample 1/%d: no events emitted", sample)
		}
	}
}

// TestTracedBatchedReplayDeterministic extends both claims to the
// dynamic-batching loop: two traced batched replays emit the same
// trace, and the traced batched DayResult equals the untraced one.
func TestTracedBatchedReplayDeterministic(t *testing.T) {
	run := func(sample int) ([]byte, DayResult) {
		opts := testOpts()
		opts.MaxBatch = 4
		opts.BatchWaitS = 0.004
		opts.TraceSample = sample
		e := testEngine(WeightedHetero, opts)
		e.Service = constBatchSource{}
		var buf bytes.Buffer
		if e.Tracer != nil {
			e.Tracer.AddSink(telemetry.NewNDJSONWriter(&buf))
		}
		res, err := e.RunDay(goldenTraceWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		if e.Tracer != nil {
			if err := e.Tracer.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes(), res
	}
	traceA, resA := run(8)
	traceB, resB := run(8)
	if len(traceA) == 0 || !bytes.Equal(traceA, traceB) {
		t.Error("two traced batched replays emitted different traces")
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Error("two traced batched replays diverged")
	}
	_, untraced := run(0)
	if !reflect.DeepEqual(resA, untraced) {
		t.Error("tracing changed the batched DayResult")
	}
}

// TestTracedRoutersMatchUntraced: for every router in routerTable,
// PickTraced must make the identical decision sequence Pick makes —
// same picks, same RNG draws, same instance-state evolution — while
// filling in the routing event. Two mirrored simulations with shared
// seeds catch any divergence in draw count or Outstanding() order.
func TestTracedRoutersMatchUntraced(t *testing.T) {
	for _, kind := range AllRouters {
		plain, err := NewRouter(kind)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewRouter(kind)
		if err != nil {
			t.Fatal(err)
		}
		instsA := constInstances(5, "T2", 0.008, 100, 16)
		instsB := constInstances(5, "T2", 0.008, 100, 16)
		rngA := stats.NewRand(99)
		rngB := stats.NewRand(99)
		now := 0.0
		var ev telemetry.Event
		for i := 0; i < 400; i++ {
			pa := plain.Pick(instsA, now, rngA)
			ev = telemetry.Event{}
			pb := tr.PickTraced(instsB, now, rngB, &ev)
			if pa != pb {
				t.Fatalf("%s: decision %d diverged: Pick=%d PickTraced=%d", kind, i, pa, pb)
			}
			if ev.NCand == 0 {
				t.Fatalf("%s: no candidates recorded", kind)
			}
			// The chosen instance must be among the recorded candidates
			// (the engine stamps ev.Instance itself after PickTraced).
			found := false
			for c := 0; c < int(ev.NCand) && c < telemetry.MaxCandidates; c++ {
				if int(ev.Cand[c]) == instsB[pb].ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: picked instance %d not among %d recorded candidates",
					kind, instsB[pb].ID, ev.NCand)
			}
			instsA[pa].Arrive(now, 100, 1)
			instsB[pb].Arrive(now, 100, 1)
			now += 0.0007
		}
		for i := range instsA {
			if instsA[i].Served != instsB[i].Served || instsA[i].Dropped != instsB[i].Dropped {
				t.Fatalf("%s: instance %d state diverged (%d/%d vs %d/%d)", kind, i,
					instsA[i].Served, instsA[i].Dropped, instsB[i].Served, instsB[i].Dropped)
			}
		}
	}
}

// TestTracedDropInstance: a drop event names the instance whose queue
// rejected the query, or -1 when the pool was empty.
func TestTracedDropInstance(t *testing.T) {
	svc := func(int, float64) float64 { return 0.010 }
	unbatched := NewInstance(7, "T2", "DLRM-RMC1", 100, 1, 0, svc)
	// Batched capacity is max(1, 2)+0 = 2 outstanding: the first two
	// arrivals dispatch as a full batch, the third is rejected.
	batched := NewInstance(9, "T2", "DLRM-RMC1", 100, 1, 0, svc)
	batched.EnableBatching(2, 0.002, nil)
	for _, tc := range []struct {
		name  string
		insts []*Instance
		want  int32
	}{
		{"empty pool", nil, -1},
		{"full unbatched queue", []*Instance{unbatched}, 7},
		{"full batched queue", []*Instance{batched}, 9},
	} {
		w := &poolTask{insts: tc.insts, fromTrace: true, windowW: math.Inf(1), maxBatch: 2,
			newRouter: func() Router { return &roundRobin{} }}
		w.reset(1)
		for i := 0; i < 3; i++ {
			w.rec = append(w.rec, workload.Query{ID: int64(i), Size: 100, SparseScale: 1})
		}
		w.trace.Arm(telemetry.NewTracer(1, 1, 0), 0, "DLRM-RMC1", stats.HashString("DLRM-RMC1"))
		w.traceOn = true
		w.run()
		drops := 0
		for _, ev := range w.trace.Events() {
			if ev.Kind != telemetry.KindDrop {
				continue
			}
			drops++
			if ev.Instance != tc.want {
				t.Errorf("%s: drop of query %d names instance %d, want %d", tc.name, ev.Query, ev.Instance, tc.want)
			}
		}
		if drops == 0 || drops != w.dropped {
			t.Errorf("%s: %d drop events for %d drops", tc.name, drops, w.dropped)
		}
	}
}

// TestRegionTraceLabels: in a two-region traced day every exported
// line carries the region of the engine that emitted it.
func TestRegionTraceLabels(t *testing.T) {
	spec := regionsTestSpec("spill")
	spec.Options.TraceSample = 64
	me := newRegionsEngine(t, spec)
	bufs := make([]bytes.Buffer, len(me.Engines))
	for i, eng := range me.Engines {
		eng.Tracer.AddSink(telemetry.NewNDJSONWriter(&bufs[i]))
	}
	if _, err := me.RunDay(regionsWorkloads()); err != nil {
		t.Fatal(err)
	}
	for i, eng := range me.Engines {
		if err := eng.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
		region := eng.Spec.Regions[0].Name
		label := []byte(`,"r":"` + region + `",`)
		lines := bytes.Split(bytes.TrimSpace(bufs[i].Bytes()), []byte("\n"))
		if len(lines) < 100 {
			t.Fatalf("region %s: %d trace lines, want a traced day", region, len(lines))
		}
		for _, line := range lines {
			if !bytes.Contains(line, label) {
				t.Fatalf("region %s: line lacks its label: %s", region, line)
			}
		}
	}
}

// TestTracerAddsNoEventStorage: a traced engine allocates no staging
// memory of its own at construction; its events live in the replay
// tasks' buffers.
func TestTracerAddsNoEventStorage(t *testing.T) {
	build := func(sample int) uint64 {
		opts := testOpts()
		opts.TraceSample = sample
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e := testEngine(PowerOfTwo, opts)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(e)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	untraced, traced := build(0), build(64)
	if traced > untraced+64<<10 {
		t.Errorf("traced engine allocates %d B, untraced %d B: %d B more, want < 64 KiB",
			traced, untraced, traced-untraced)
	}
}
