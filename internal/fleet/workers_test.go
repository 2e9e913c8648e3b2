package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/hw"
	"hercules/internal/profiler"
	"hercules/internal/telemetry"
)

// The worker-count tests pin the replay's purity contract: a result is
// a function of the spec alone. Each (region × model) pool replays as
// one task with its own seeded streams, so running the tasks on 1, 2
// or 8 workers must change nothing — not the DayResult, not one byte
// of the trace.

// workerProcs are the GOMAXPROCS settings every replay is compared at.
var workerProcs = []int{1, 2, 8}

// atProcs runs f with GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// workerTable profiles three models on two server types with distinct
// capacities, so the hetero router has real weights to act on and the
// provisioner builds mixed pools.
func workerTable() *profiler.Table {
	tb := &profiler.Table{}
	for _, m := range []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"} {
		tb.Set(profiler.Entry{Model: m, Server: "T2", QPS: 200, PowerW: 300, QPSPerWatt: 200.0 / 300})
		tb.Set(profiler.Entry{Model: m, Server: "T3", QPS: 300, PowerW: 350, QPSPerWatt: 300.0 / 350})
	}
	return tb
}

func workerFleet() hw.Fleet {
	return hw.Fleet{Types: []hw.Server{hw.ServerType("T2"), hw.ServerType("T3")}, Counts: []int{40, 20}}
}

// workerWorkloads is a three-model day that overloads its peak, so
// queue drops and deadline admission both act.
func workerWorkloads() []cluster.Workload {
	return []cluster.Workload{
		{Model: "DLRM-RMC1", Trace: stepTrace(800, 2400, 4800, 1600)},
		{Model: "DLRM-RMC2", Trace: stepTrace(400, 1200, 2400, 800)},
		{Model: "DLRM-RMC3", Trace: stepTrace(200, 600, 1200, 400)},
	}
}

// tracedDay replays ws through run with every engine's tracer writing
// into one shared NDJSON sink, and returns the result and trace bytes.
func tracedDay(t *testing.T, engines []*Engine, run func() (DayResult, error)) (DayResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := telemetry.NewNDJSONWriter(&buf)
	for _, e := range engines {
		e.Tracer.AddSink(sink)
	}
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if err := e.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("traced replay emitted no events")
	}
	return res, buf.Bytes()
}

// checkWorkerInvariance replays day at every workerProcs setting and
// requires identical results and trace bytes.
func checkWorkerInvariance(t *testing.T, day func() (DayResult, []byte)) {
	t.Helper()
	var want DayResult
	var wantTrace []byte
	for _, procs := range workerProcs {
		var got DayResult
		var trace []byte
		atProcs(procs, func() { got, trace = day() })
		if got.TotalQueries == 0 {
			t.Fatalf("GOMAXPROCS=%d: replay served nothing", procs)
		}
		if wantTrace == nil {
			want, wantTrace = got, trace
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: DayResult diverged from GOMAXPROCS=%d", procs, workerProcs[0])
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("GOMAXPROCS=%d: trace diverged (%d vs %d bytes)", procs, len(trace), len(wantTrace))
		}
	}
}

// TestWorkerCountInvariance: a batched, hetero-routed, admission-shed,
// cache-fronted three-model day traced at 1/1.
func TestWorkerCountInvariance(t *testing.T) {
	opts := testOpts()
	opts.MaxBatch = 4
	opts.BatchWaitS = 0.004
	opts.TraceSample = 1
	spec := Spec{Router: WeightedHetero, Policy: "greedy", Admission: "deadline",
		Models:    []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"},
		HeadroomR: 0.05, Cache: CacheSpec{HitRate: 0.3}, Options: opts}
	checkWorkerInvariance(t, func() (DayResult, []byte) {
		e, err := NewEngine(spec, WithFleet(workerFleet()), WithTable(workerTable()),
			WithService(constBatchSource{}))
		if err != nil {
			t.Fatal(err)
		}
		res, trace := tracedDay(t, []*Engine{e}, func() (DayResult, error) { return e.RunDay(workerWorkloads()) })
		if res.TotalShed == 0 || res.TotalDrops == 0 || res.TotalCacheHits == 0 {
			t.Fatalf("day exercised too little: shed %d, drops %d, cache hits %d",
				res.TotalShed, res.TotalDrops, res.TotalCacheHits)
		}
		return res, trace
	})
}

// TestRegionsWorkerCountInvariance: three lockstep regions with a
// blackout and geo spill, sketch tails, traced 1/1 into one sink that
// every region's tracer shares — all regions' pools run in one batch.
func TestRegionsWorkerCountInvariance(t *testing.T) {
	opts := testOpts()
	opts.SketchTails = true
	opts.TraceSample = 1
	spec := Spec{
		Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1", "DLRM-RMC2"},
		HeadroomR: 0.05, Geo: GeoSpill,
		Scenario: `{"name":"east-blackout","events":[{"kind":"blackout","region":"east","start_h":0.1,"end_h":0.4}]}`,
		Regions: []RegionSpec{
			{Name: "east", RTTMS: map[string]float64{"west": 12, "eu": 80}},
			{Name: "west", PhaseH: -6, RTTMS: map[string]float64{"eu": 90}},
			{Name: "eu", PhaseH: 6},
		},
		Options: opts,
	}
	wss := [][]cluster.Workload{
		workerWorkloads()[:2],
		{{Model: "DLRM-RMC1", Trace: stepTrace(400, 800, 1200, 800)}, {Model: "DLRM-RMC2", Trace: stepTrace(200, 400, 600, 400)}},
		{{Model: "DLRM-RMC1", Trace: stepTrace(600, 600, 600, 600)}, {Model: "DLRM-RMC2", Trace: stepTrace(300, 300, 300, 300)}},
	}
	checkWorkerInvariance(t, func() (DayResult, []byte) {
		me, err := NewMultiEngine(spec, WithFleet(workerFleet()), WithTable(workerTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		res, trace := tracedDay(t, me.Engines, func() (DayResult, error) { return me.RunDay(wss) })
		if res.SpillInServed == 0 {
			t.Fatal("blackout spilled nothing")
		}
		return res, trace
	})
}

// TestProducerFairShare: workerWorkloads offers RMC1 57% of the day's
// load, above the fair share Σqps / workers once there are two
// workers, so RMC1's stream (and only its) is generated on a producer
// goroutine at GOMAXPROCS 2 and 8; at GOMAXPROCS 1 there is no idle
// core and no task gets one.
func TestProducerFairShare(t *testing.T) {
	spec := Spec{Router: WeightedHetero, Policy: "greedy", Admission: "deadline",
		Models: []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"}, HeadroomR: 0.05, Options: testOpts()}
	for _, procs := range workerProcs {
		atProcs(procs, func() {
			e, err := NewEngine(spec, WithFleet(workerFleet()), WithTable(workerTable()),
				WithService(constBatchSource{}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunDay(workerWorkloads()); err != nil {
				t.Fatal(err)
			}
			// A task's ring channels exist once it has run a producer.
			for _, task := range e.scratch.tasks {
				want := procs > 1 && task.modelName == "DLRM-RMC1"
				if got := task.full != nil; got != want {
					t.Errorf("GOMAXPROCS=%d: %s ran a producer: %v, want %v", procs, task.modelName, got, want)
				}
			}
		})
	}
}
