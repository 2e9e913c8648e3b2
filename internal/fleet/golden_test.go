package fleet

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hercules/internal/cluster"
)

// The golden replays in testdata/ pin the replay bit for bit: one
// routed pool per model, built through the registry, Spec construction
// and Observer hooks (first recorded by the enum-based RouterKind
// engine before those existed; re-recorded once when per-model pools
// stopped being split into core-count shards). A refactor that keeps
// them byte-identical moved only wiring, never the simulation.
// Regenerate the goldens only when the replay semantics change
// deliberately (document why in the commit).

// constBatchSource is a batching-capable stub: constant 5 ms solo
// service with an amortization curve steep enough that the engine
// derives batch cap 4 under RMC1's 20 ms SLA.
type constBatchSource struct{}

func (constBatchSource) ServiceS(st, m string, size int, scale float64) float64 { return 0.005 }

func (constBatchSource) PairBatchEff(st, m string, maxBatch int) []float64 {
	eff := []float64{1, 1, 0.6, 0.45, 0.35}
	if maxBatch+1 < len(eff) {
		return eff[:maxBatch+1]
	}
	return eff
}

// goldenWorkloads is the day both goldens replay.
func goldenWorkloads() []cluster.Workload {
	return []cluster.Workload{{
		Model: "DLRM-RMC1",
		Trace: stepTrace(800, 1200, 1600, 2000, 1600, 1200, 800, 600),
	}}
}

// loadGolden reads a recorded golden DayResult.
func loadGolden(t *testing.T, path string) DayResult {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want DayResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// stripPostRedesign zeroes the DayResult fields that did not exist
// when the goldens were recorded (the policy names the redesign added
// to the report, and the boosted-interval count the multi-region
// merge added). Everything the replay computes must still match.
func stripPostRedesign(res DayResult) DayResult {
	res.Scaler, res.Admission = "", ""
	res.BoostedIntervals = 0
	return res
}

// TestGoldenReplayUnbatched: a registry-constructed engine (Spec →
// NewEngine → registry router + "breach" scaler) must replay the
// golden day byte-identically.
func TestGoldenReplayUnbatched(t *testing.T) {
	want := loadGolden(t, "testdata/golden_day.json")
	got, err := testEngine(PowerOfTwo, testOpts()).RunDay(goldenWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPostRedesign(got), want) {
		t.Error("registry-built engine diverged from the golden replay")
	}
}

// TestGoldenReplayBatched extends the byte-identity claim to the
// dynamic-batching replay loop (hetero router, batch cap 4).
func TestGoldenReplayBatched(t *testing.T) {
	want := loadGolden(t, "testdata/golden_day_batched.json")
	opts := testOpts()
	opts.MaxBatch = 4
	opts.BatchWaitS = 0.004
	e := testEngine(WeightedHetero, opts)
	e.Service = constBatchSource{}
	got, err := e.RunDay(goldenWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPostRedesign(got), want) {
		t.Error("batched registry-built engine diverged from the golden replay")
	}
}

// TestGoldenSpecJSONRoundTrip: marshalling the run's Spec to JSON and
// rebuilding the engine from the decoded bytes must reproduce the same
// replay — the guarantee that a saved spec file replays what the
// in-process run measured.
func TestGoldenSpecJSONRoundTrip(t *testing.T) {
	opts := testOpts()
	// HeadroomR 0.05: the cluster-layer headroom the golden was
	// recorded at (see testEngine).
	spec := Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05, Options: opts}
	build := func(s Spec) *Engine {
		e, err := NewEngine(s, WithFleet(testFleet()), WithTable(testTable()),
			WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 })))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	direct, err := build(spec).RunDay(goldenWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := build(decoded).RunDay(goldenWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, rebuilt) {
		t.Fatal("spec JSON round trip changed the replay")
	}
	if !reflect.DeepEqual(stripPostRedesign(direct), loadGolden(t, "testdata/golden_day.json")) {
		t.Fatal("spec-driven replay diverged from the golden replay")
	}
}
