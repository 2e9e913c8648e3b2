package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"hercules/internal/cluster"
	"hercules/internal/profiler"
)

// regionsTestSpec is the two-region drill the multi-region tests and
// the committed golden replay: east (RTT 12 ms to west) suffers a
// full blackout from 0.5h to 1.0h of the replayed day, west runs six
// hours phase-shifted and absorbs the 1.5x survivor flash crowd.
func regionsTestSpec(geo string) Spec {
	opts := testOpts()
	return Spec{
		Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05,
		Scenario:  `{"name":"east-blackout","events":[{"kind":"blackout","region":"east","start_h":0.5,"end_h":1.0}]}`,
		Geo:       geo,
		Regions: []RegionSpec{
			{Name: "east", RTTMS: map[string]float64{"west": 12}},
			{Name: "west", PhaseH: -6},
		},
		Options: opts,
	}
}

// regionsWorkloads: east runs hot enough that losing its fleet
// matters; west has the headroom a spill policy needs.
func regionsWorkloads() [][]cluster.Workload {
	return [][]cluster.Workload{
		{{Model: "DLRM-RMC1", Trace: stepTrace(2000, 2400, 2800, 2800, 2400, 2000, 1600, 1200)}},
		{{Model: "DLRM-RMC1", Trace: stepTrace(1000, 1200, 1400, 1400, 1200, 1000, 800, 600)}},
	}
}

// newRegionsEngine builds spec on the test fleet, table and 5 ms
// service; opts apply last, so they override any of those.
func newRegionsEngine(t *testing.T, spec Spec, opts ...Option) *MultiEngine {
	t.Helper()
	me, err := NewMultiEngine(spec, append([]Option{WithFleet(testFleet()), WithTable(testTable()),
		WithService(svcFunc(func(st, m string, size int, scale float64) float64 { return 0.005 }))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return me
}

func runRegions(t *testing.T, geo string) DayResult {
	t.Helper()
	res, err := newRegionsEngine(t, regionsTestSpec(geo)).RunDay(regionsWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	checkDayInvariants(t, res)
	return res
}

// TestRegionsGoldenReplay pins the two-region blackout replay with
// cross-region spill against the committed golden: the multi-region
// outage path must stay byte-identical across refactors, exactly as
// the single-region goldens pin the core replay. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/fleet -run TestRegionsGoldenReplay
// only when the replay semantics change deliberately.
func TestRegionsGoldenReplay(t *testing.T) {
	got := runRegions(t, GeoSpill)
	const path = "testdata/golden_regions.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want := loadGolden(t, path)
	if !reflect.DeepEqual(got, want) {
		t.Error("two-region spill replay diverged from the committed golden (UPDATE_GOLDEN=1 to regenerate after a deliberate change)")
	}
}

// TestRegionsSpillReplayDeterministic: a three-model, three-region
// spill day replays byte-identically within one process. The inbound
// load that normalizes spilled queries' RTT is a float sum over
// models; added up in map order it moves in its last digits from
// replay to replay once three models contribute.
func TestRegionsSpillReplayDeterministic(t *testing.T) {
	models := []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"}
	table := testTable()
	for _, m := range models[1:] {
		table.Set(profiler.Entry{Model: m, Server: "T2", QPS: 200, PowerW: 300, QPSPerWatt: 200.0 / 300})
	}
	spec := regionsTestSpec(GeoSpill)
	spec.Models = models
	spec.Regions = []RegionSpec{{Name: "east"}, {Name: "west", PhaseH: -6}, {Name: "eu", PhaseH: 6}}
	wss := make([][]cluster.Workload, len(spec.Regions))
	for r := range wss {
		for i, m := range models {
			loads := make([]float64, 8)
			for k := range loads {
				loads[k] = 700/float64(r+1) + 97.3*float64(i) + 31.7*float64(k)
			}
			wss[r] = append(wss[r], cluster.Workload{Model: m, Trace: stepTrace(loads...)})
		}
	}
	var first []byte
	for rep := 0; rep < 12; rep++ {
		res, err := newRegionsEngine(t, spec, WithTable(table)).RunDay(wss)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 && res.SpillInServed == 0 {
			t.Fatal("the blackout spilled nothing; the replay does not exercise geo spill")
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("replay %d of the same spec differs from the first", rep)
		}
	}
}

// TestRegionsSpillBeatsLocal is the failover claim itself: during a
// full-region blackout, spilling to the survivor must serve traffic
// the local-only policy can only drop.
func TestRegionsSpillBeatsLocal(t *testing.T) {
	local := runRegions(t, GeoLocal)
	spill := runRegions(t, GeoSpill)
	if local.SpillInServed != 0 || local.SpillInDropped != 0 {
		t.Errorf("local-only geo must never spill (served %d, dropped %d)",
			local.SpillInServed, local.SpillInDropped)
	}
	if spill.SpillInServed == 0 {
		t.Error("spill geo served no remote queries through the blackout")
	}
	if spill.DropFrac >= local.DropFrac {
		t.Errorf("spill must strictly reduce the global drop fraction: spill %.4f vs local %.4f",
			spill.DropFrac, local.DropFrac)
	}
	if len(spill.Regions) != 2 {
		t.Fatalf("global result carries %d region results, want 2", len(spill.Regions))
	}
	east, west := spill.Regions[0], spill.Regions[1]
	if east.Region != "east" || west.Region != "west" {
		t.Fatalf("region labels %q/%q, want east/west", east.Region, west.Region)
	}
	if west.SpillInServed == 0 {
		t.Error("west (the survivor) must have served east's spilled queries")
	}
	if got := east.TotalQueries + west.TotalQueries; got != spill.TotalQueries {
		t.Errorf("global queries %d != sum of regions %d", spill.TotalQueries, got)
	}
}

// TestMultiEngineSingleRegionDelegates: a one-region MultiEngine must
// reproduce the plain Engine's replay byte for byte — the guarantee
// that wrapping a legacy spec in the multi-region API changes labels,
// never results.
func TestMultiEngineSingleRegionDelegates(t *testing.T) {
	opts := testOpts()
	spec := Spec{Router: PowerOfTwo, Policy: "greedy", Models: []string{"DLRM-RMC1"},
		HeadroomR: 0.05, Options: opts}
	ws := goldenWorkloads()
	plain, err := testEngine(PowerOfTwo, opts).RunDay(ws)
	if err != nil {
		t.Fatal(err)
	}
	me := newRegionsEngine(t, spec)
	if len(me.Engines) != 1 {
		t.Fatalf("legacy spec built %d engines, want 1", len(me.Engines))
	}
	res, err := me.RunDay([][]cluster.Workload{ws})
	if err != nil {
		t.Fatal(err)
	}
	checkDayInvariants(t, res)
	if len(res.Regions) != 1 {
		t.Fatalf("single-region result carries %d regions, want 1", len(res.Regions))
	}
	regional := res.Regions[0]
	if regional.Region != "local" || regional.Geo != GeoLocal {
		t.Errorf("implicit region labelled %q/%q, want local/local", regional.Region, regional.Geo)
	}
	regional.Region, regional.Geo = "", ""
	if !reflect.DeepEqual(regional, plain) {
		t.Error("single-region MultiEngine replay diverged from the plain Engine")
	}
}

// TestSpecNormalizeLegacy: a legacy region-less spec canonicalizes to
// one implicit region named "local" on its fleet, gets the current
// spec version stamped, and normalizing again is the identity.
func TestSpecNormalizeLegacy(t *testing.T) {
	n, err := (Spec{Fleet: "small"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.SpecVersion != SpecVersionCurrent {
		t.Errorf("SpecVersion = %d, want %d", n.SpecVersion, SpecVersionCurrent)
	}
	if len(n.Regions) != 1 || n.Regions[0].Name != "local" || n.Regions[0].Fleet != "small" {
		t.Errorf("legacy spec normalized to regions %+v, want one implicit local region on the spec's fleet", n.Regions)
	}
	if n.Geo != GeoLocal {
		t.Errorf("Geo defaulted to %q, want %q", n.Geo, GeoLocal)
	}
	again, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, n) {
		t.Error("Normalize is not idempotent")
	}
}

func TestSpecNormalizeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"future version", Spec{SpecVersion: SpecVersionCurrent + 1}},
		{"unnamed region", Spec{Regions: []RegionSpec{{}}}},
		{"duplicate region", Spec{Regions: []RegionSpec{{Name: "a"}, {Name: "a"}}}},
		{"rtt to unknown region", Spec{Regions: []RegionSpec{{Name: "a", RTTMS: map[string]float64{"nope": 5}}}}},
	} {
		if _, err := tc.spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted an invalid spec", tc.name)
		}
	}
}

// TestSpecNormalizeDoesNotMutate: Normalize must copy the regions
// slice before filling per-region defaults — a value-receiver Spec
// still shares slice backing arrays with the caller's.
func TestSpecNormalizeDoesNotMutate(t *testing.T) {
	regions := []RegionSpec{{Name: "east"}}
	spec := Spec{Fleet: "small", Regions: regions}
	if _, err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if regions[0].Fleet != "" {
		t.Error("Normalize mutated the caller's regions slice")
	}
}

// TestCommittedSpecNormalizeRoundTrip: the committed testdata spec
// (the CLI smoke spec) must decode, normalize as a legacy document,
// and replay byte-identically whether the engine is built from the
// raw or the normalized form — the backwards-compatibility contract
// for every spec file written before regions existed.
func TestCommittedSpecNormalizeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke-spec replay")
	}
	data, err := os.ReadFile("../../testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw Spec
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.SpecVersion != 0 || len(raw.Regions) != 0 {
		t.Fatalf("smoke.json is expected to be a legacy (pre-regions) spec, got version %d with %d regions",
			raw.SpecVersion, len(raw.Regions))
	}
	norm, err := raw.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Spec) DayResult {
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunDay(e.Workloads())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got, want := run(norm), run(raw); !reflect.DeepEqual(got, want) {
		t.Error("normalized smoke spec replays differently from the raw legacy spec")
	}
}

// TestRegionsSpecJSONRoundTrip extends the spec-file guarantee to the
// multi-region form: marshal, decode, rebuild, replay — identical.
func TestRegionsSpecJSONRoundTrip(t *testing.T) {
	spec := regionsTestSpec(GeoSpill)
	direct, err := newRegionsEngine(t, spec).RunDay(regionsWorkloads())
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
	rebuilt, err := newRegionsEngine(t, decoded).RunDay(regionsWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, rebuilt) {
		t.Fatal("multi-region spec JSON round trip changed the replay")
	}
}

// TestMultiEngineRejects: the construction-time error contract.
func TestMultiEngineRejects(t *testing.T) {
	trace := regionsTestSpec(GeoSpill)
	trace.Trace = "testdata/golden_arrivals.ndjson"
	unknownGeo := regionsTestSpec("warp")
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"recorded trace with regions", trace},
		{"unknown geo policy", unknownGeo},
	} {
		if _, err := NewMultiEngine(tc.spec, WithFleet(testFleet()), WithTable(testTable())); err == nil {
			t.Errorf("%s: NewMultiEngine accepted the spec", tc.name)
		}
	}
	multiSpec := regionsTestSpec(GeoSpill)
	if _, err := NewEngine(multiSpec, WithFleet(testFleet()), WithTable(testTable())); err == nil {
		t.Error("NewEngine accepted a multi-region spec (want a pointer to NewMultiEngine)")
	}
}

// approxDay compares the numeric fields two merge orders may round
// differently, within tolerance, and everything else exactly.
func approxDay(t *testing.T, a, b DayResult) {
	t.Helper()
	near := func(name string, x, y float64) {
		t.Helper()
		if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			t.Errorf("%s: %g vs %g", name, x, y)
		}
	}
	near("MeanP95MS", a.MeanP95MS, b.MeanP95MS)
	near("MeanP99MS", a.MeanP99MS, b.MeanP99MS)
	near("DropFrac", a.DropFrac, b.DropFrac)
	near("CacheHitRate", a.CacheHitRate, b.CacheHitRate)
	near("SLAViolationMin", a.SLAViolationMin, b.SLAViolationMin)
	near("EnergyKJ", a.EnergyKJ, b.EnergyKJ)
	near("ProvisionedEnergyKJ", a.ProvisionedEnergyKJ, b.ProvisionedEnergyKJ)
	a.MeanP95MS, a.MeanP99MS, a.DropFrac, a.CacheHitRate = 0, 0, 0, 0
	b.MeanP95MS, b.MeanP99MS, b.DropFrac, b.CacheHitRate = 0, 0, 0, 0
	a.SLAViolationMin, a.EnergyKJ, a.ProvisionedEnergyKJ = 0, 0, 0
	b.SLAViolationMin, b.EnergyKJ, b.ProvisionedEnergyKJ = 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("merge orders disagree beyond float rounding:\n%+v\nvs\n%+v", a, b)
	}
}

// TestMergeDaysAssociativity pins the merge algebra: folding regions
// pairwise must agree with merging them all at once (up to float
// rounding), so partial aggregation — streaming regions in, merging
// hierarchically — is sound.
func TestMergeDaysAssociativity(t *testing.T) {
	a := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 1000, TotalDrops: 10, TotalShed: 5, TotalCacheHits: 100,
		MeanP95MS: 8, MeanP99MS: 12, MaxP95MS: 20, MaxP99MS: 30,
		SLAViolationMin: 3, EnergyKJ: 50, ProvisionedEnergyKJ: 80,
		Reprovisions: 4, EarlyReprovisions: 1, AutoscaleEvents: 2,
		BoostedIntervals: 3, SpillInServed: 40, SpillInDropped: 2, Region: "a"}
	b := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 4000, TotalDrops: 400, TotalShed: 0, TotalCacheHits: 50,
		MeanP95MS: 15, MeanP99MS: 22, MaxP95MS: 45, MaxP99MS: 60,
		SLAViolationMin: 12, EnergyKJ: 200, ProvisionedEnergyKJ: 260,
		Reprovisions: 4, EarlyReprovisions: 2, AutoscaleEvents: 5,
		BoostedIntervals: 6, SpillInServed: 0, SpillInDropped: 0, Region: "b"}
	c := DayResult{Router: "p2c", Policy: "greedy", Scenario: "s",
		TotalQueries: 200, TotalDrops: 1, TotalShed: 2, TotalCacheHits: 20,
		MeanP95MS: 5, MeanP99MS: 7, MaxP95MS: 9, MaxP99MS: 11,
		SLAViolationMin: 0, EnergyKJ: 10, ProvisionedEnergyKJ: 18,
		Reprovisions: 4, EarlyReprovisions: 0, AutoscaleEvents: 0,
		BoostedIntervals: 0, SpillInServed: 3, SpillInDropped: 1, Region: "c"}

	flat := MergeDays(a, b, c)
	leftFold := MergeDays(MergeDays(a, b), c)
	rightFold := MergeDays(a, MergeDays(b, c))
	approxDay(t, flat, leftFold)
	approxDay(t, flat, rightFold)

	if flat.TotalQueries != 5200 || flat.TotalDrops != 411 {
		t.Errorf("merged totals wrong: %d queries, %d drops", flat.TotalQueries, flat.TotalDrops)
	}
	if flat.MaxP99MS != 60 {
		t.Errorf("MaxP99MS = %g, want the max of maxes 60", flat.MaxP99MS)
	}
	wantMean := (8*1000.0 + 15*4000 + 5*200) / 5200.0
	if math.Abs(flat.MeanP95MS-wantMean) > 1e-12 {
		t.Errorf("MeanP95MS = %g, want the query-weighted %g", flat.MeanP95MS, wantMean)
	}
	if flat.Region != "" {
		t.Errorf("merged result kept region label %q", flat.Region)
	}
	if MergeDays(a).Region != "" {
		t.Error("single-part merge kept its region label")
	}
}
