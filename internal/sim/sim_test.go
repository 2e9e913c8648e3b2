package sim

import (
	"math"
	"slices"
	"testing"

	"hercules/internal/costmodel"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/workload"
)

func mkQueries(m *model.Model, rate float64, windowS float64, seed int64) []workload.Query {
	return workload.NewGenerator(m, rate, seed).Until(windowS)
}

func TestSimulateCPUModelBasic(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}
	qs := mkQueries(m, 50, 10, 1)
	res, err := s.Simulate(cfg, qs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != len(qs) {
		t.Fatalf("queries = %d", res.Queries)
	}
	if res.MeanMS <= 0 || res.P99MS < res.P95MS || res.P95MS < res.P50MS {
		t.Fatalf("latency stats inconsistent: %+v", res)
	}
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Fatalf("cpu util %v", res.CPUUtil)
	}
	if res.AvgPowerW <= s.HW.IdleWatts() {
		t.Fatalf("power %v must exceed idle", res.AvgPowerW)
	}
	if res.GPUUtil != 0 {
		t.Fatal("no GPU on T2")
	}
}

func TestSimulateEmptyStream(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 4, OpWorkers: 1, Batch: 64}
	if _, err := s.Simulate(cfg, nil, 5); err == nil {
		t.Fatal("empty stream must error")
	}
}

func TestSimulateInvalidConfig(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	bad := []Config{
		{Place: PlaceCPUModel, Threads: 0, OpWorkers: 1, Batch: 64},
		{Place: PlaceCPUModel, Threads: 21, OpWorkers: 1, Batch: 64}, // >20 cores
		{Place: PlaceCPUModel, Threads: 10, OpWorkers: 3, Batch: 64}, // 30 cores
		{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 0},
		{Place: PlaceAccelModel, AccelThreads: 1, Batch: 64},     // no GPU on T2
		{Place: PlaceCPUSD, Threads: 4, OpWorkers: 1, Batch: 64}, // no sparse stage
		{Place: Placement(42), Threads: 1, OpWorkers: 1, Batch: 1},
	}
	qs := mkQueries(m, 10, 2, 2)
	for i, cfg := range bad {
		if _, err := s.Simulate(cfg, qs, 2); err == nil {
			t.Errorf("config %d must be rejected: %+v", i, cfg)
		}
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}
	light, err := s.Evaluate(cfg, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := s.Evaluate(cfg, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.TailMS <= light.TailMS {
		t.Fatalf("overload must inflate tail: light %.2f heavy %.2f", light.TailMS, heavy.TailMS)
	}
	if heavy.CPUUtil <= light.CPUUtil {
		t.Fatal("overload must raise utilization")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := model.DLRMRMC2(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 20, OpWorkers: 1, Batch: 64}
	a, _ := s.Evaluate(cfg, 60, 7)
	b, _ := s.Evaluate(cfg, 60, 7)
	if a != b {
		t.Fatalf("same seed must reproduce: %+v vs %+v", a, b)
	}
}

func TestSDPipelineRuns(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUSD, SparseThreads: 8, SparseWorkers: 2,
		Threads: 4, OpWorkers: 1, Batch: 128}
	res, err := s.Evaluate(cfg, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMS <= 0 {
		t.Fatalf("SD pipeline produced no latency: %+v", res)
	}
}

func TestAccelPlacementRuns(t *testing.T) {
	m := model.DLRMRMC3(model.Small)
	s := New(hw.ServerType("T7"), m)
	cfg := Config{Place: PlaceAccelModel, AccelThreads: 2, Batch: 256,
		FusionLimit: 2000, SparseThreads: 1, SparseWorkers: 1}
	res, err := s.Evaluate(cfg, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUtil <= 0 {
		t.Fatalf("accel placement must busy the GPU: %+v", res)
	}
	if res.LoadMS <= 0 || res.ComputeMS <= 0 {
		t.Fatalf("stage breakdown missing: %+v", res)
	}
}

func TestNMPImprovesMemoryBoundCapacity(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	sDDR := New(hw.ServerType("T2"), m)
	sNMP := New(hw.ServerType("T4"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}
	cfgNMP := cfg
	cfgNMP.UseNMP = true
	capDDR, err := sDDR.FindCapacity(cfg, m.SLATargetMS, 11)
	if err != nil {
		t.Fatal(err)
	}
	capNMP, err := sNMP.FindCapacity(cfgNMP, m.SLATargetMS, 11)
	if err != nil {
		t.Fatal(err)
	}
	if capNMP.QPS <= capDDR.QPS {
		t.Fatalf("NMPx4 must beat DDR4 for RMC1: %.0f vs %.0f QPS", capNMP.QPS, capDDR.QPS)
	}
}

func TestFindCapacityPositive(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}
	cap1, err := s.FindCapacity(cfg, m.SLATargetMS, 13)
	if err != nil {
		t.Fatal(err)
	}
	if cap1.QPS < minRate {
		t.Fatalf("capacity = %v, want sustained load", cap1.QPS)
	}
	if cap1.At.TailMS > m.SLATargetMS {
		t.Fatalf("capacity point violates SLA: %.2f > %.2f", cap1.At.TailMS, m.SLATargetMS)
	}
}

func TestCapacityGrowsWithSLA(t *testing.T) {
	// Latency-bounded throughput must be monotone in the SLA target
	// (Figs. 4, 14 x-axis behaviour).
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 20, OpWorkers: 1, Batch: 64}
	prev := -1.0
	for _, sla := range []float64{10, 20, 40, 80} {
		c, err := s.FindCapacity(cfg, sla, 17)
		if err != nil {
			t.Fatal(err)
		}
		if c.QPS < prev*0.9 { // tolerate small search noise
			t.Errorf("capacity fell from %.0f to %.0f when SLA relaxed to %v", prev, c.QPS, sla)
		}
		if c.QPS > prev {
			prev = c.QPS
		}
	}
}

func TestFig4HostParallelismTradeoff(t *testing.T) {
	// Fig. 4: at tight SLA, 10 threads × 2 cores beats DeepRecSys'
	// 20 × 1 for DLRM-RMC1 (up to ~35%); at loose SLA they converge.
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T2"), m)
	tight := 15.0
	best := func(threads, workers int) float64 {
		bestQPS := 0.0
		for _, batch := range []int{32, 64, 128, 256} {
			cfg := Config{Place: PlaceCPUModel, Threads: threads, OpWorkers: workers, Batch: batch}
			c, err := s.FindCapacity(cfg, tight, 19)
			if err != nil {
				t.Fatal(err)
			}
			if c.QPS > bestQPS {
				bestQPS = c.QPS
			}
		}
		return bestQPS
	}
	a, b := best(20, 1), best(10, 2)
	if b <= a {
		t.Errorf("10×2 (%.0f QPS) must beat 20×1 (%.0f QPS) at tight SLA", b, a)
	}
	// The paper reports up to ~35%% improvement — ours should land in a
	// broadly similar band, not a 5× artifact.
	if b/a > 2.5 {
		t.Errorf("10×2 advantage %.2f× implausibly large", b/a)
	}
}

func TestFusionImprovesAccelThroughput(t *testing.T) {
	// Fig. 6: model co-location + query fusion beats no-fusion on GPU.
	m := model.MTWnD(model.Small)
	s := New(hw.ServerType("T7"), m)
	noFusion := Config{Place: PlaceAccelModel, AccelThreads: 2, Batch: 1024,
		SparseThreads: 1, SparseWorkers: 1, FusionLimit: 0}
	fusion := noFusion
	fusion.FusionLimit = 4000
	a, err := s.FindCapacity(noFusion, m.SLATargetMS, 23)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.FindCapacity(fusion, m.SLATargetMS, 23)
	if err != nil {
		t.Fatal(err)
	}
	if b.QPS <= a.QPS {
		t.Errorf("fusion (%.0f QPS) must beat no-fusion (%.0f QPS)", b.QPS, a.QPS)
	}
}

func TestConfigValidateAccelSD(t *testing.T) {
	srv := hw.ServerType("T7")
	cfg := Config{Place: PlaceAccelSD, AccelThreads: 1, Batch: 128}
	if err := cfg.Validate(srv); err == nil {
		t.Fatal("accel-sd without host sparse stage must be rejected")
	}
	cfg.SparseThreads, cfg.SparseWorkers = 4, 2
	if err := cfg.Validate(srv); err != nil {
		t.Fatalf("valid accel-sd rejected: %v", err)
	}
}

func TestPlacementString(t *testing.T) {
	for _, p := range []Placement{PlaceCPUModel, PlaceCPUSD, PlaceAccelModel, PlaceAccelSD} {
		if p.String() == "" {
			t.Error("placement must render")
		}
	}
	if Placement(9).String() == "" {
		t.Error("unknown placement must render")
	}
	if !PlaceAccelModel.OnAccel() || PlaceCPUModel.OnAccel() {
		t.Error("OnAccel wrong")
	}
}

func TestSubBatches(t *testing.T) {
	cases := []struct {
		size, batch int
		want        []int
	}{
		{100, 64, []int{64, 36}},
		{64, 64, []int{64}},
		{10, 64, []int{10}},
		{200, 64, []int{64, 64, 64, 8}},
		{0, 64, []int{0}},
	}
	for _, c := range cases {
		got := slices.Collect(subBatches(c.size, c.batch))
		if n := numSubBatches(c.size, c.batch); n != len(got) {
			t.Errorf("numSubBatches(%d,%d) = %d, want %d", c.size, c.batch, n, len(got))
		}
		if len(got) != len(c.want) {
			t.Errorf("subBatches(%d,%d) = %v", c.size, c.batch, got)
			continue
		}
		sum := 0
		for i, g := range got {
			if g != c.want[i] {
				t.Errorf("subBatches(%d,%d) = %v, want %v", c.size, c.batch, got, c.want)
			}
			sum += g
		}
		if sum != c.size {
			t.Errorf("subBatches lost items: %v", got)
		}
	}
}

func TestDeepRecSysBaselineShape(t *testing.T) {
	srv := hw.ServerType("T2")
	cfg := DeepRecSysCPU(srv, 128)
	if cfg.Threads != 20 || cfg.OpWorkers != 1 {
		t.Fatalf("DeepRecSys baseline must be one thread per core: %+v", cfg)
	}
	if err := cfg.Validate(srv); err != nil {
		t.Fatal(err)
	}
	bm := BaymaxAccel(3, 512)
	if bm.FusionLimit != 0 || bm.AccelThreads != 3 {
		t.Fatalf("Baymax baseline wrong: %+v", bm)
	}
}

func TestCapacityZeroWhenImpossible(t *testing.T) {
	// Sub-millisecond SLA cannot be met by a batch-128 config on RMC2.
	m := model.DLRMRMC2(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}
	c, err := s.FindCapacity(cfg, 0.5, 29)
	if err != nil {
		t.Fatal(err)
	}
	if c.QPS != 0 {
		t.Fatalf("impossible SLA must give zero capacity, got %.1f", c.QPS)
	}
}

func TestUtilizationBounded(t *testing.T) {
	m := model.DIEN(model.Prod)
	s := New(hw.ServerType("T7"), m)
	cfg := Config{Place: PlaceAccelModel, AccelThreads: 3, Batch: 512,
		SparseThreads: 2, SparseWorkers: 1, FusionLimit: 3000}
	res, err := s.Evaluate(cfg, 500, 31)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUUtil < 0 || res.GPUUtil > 1 || res.CPUUtil < 0 || res.CPUUtil > 1 {
		t.Fatalf("utilizations out of range: %+v", res)
	}
	if math.IsNaN(res.QPSPerWatt) || res.QPSPerWatt <= 0 {
		t.Fatalf("bad QPS/W: %v", res.QPSPerWatt)
	}
}

func TestEveryQueryCompletesProperty(t *testing.T) {
	// Property: whatever the (valid) configuration and load, every query
	// completes no earlier than its arrival, and completions are finite.
	m := model.DLRMRMC1(model.Prod)
	s := New(hw.ServerType("T7"), m)
	cases := []Config{
		{Place: PlaceCPUModel, Threads: 5, OpWorkers: 4, Batch: 64},
		{Place: PlaceCPUSD, SparseThreads: 6, SparseWorkers: 2, Threads: 8, OpWorkers: 1, Batch: 128},
		{Place: PlaceAccelModel, AccelThreads: 3, Batch: 256, SparseThreads: 4, SparseWorkers: 1, FusionLimit: 1500},
		{Place: PlaceAccelSD, AccelThreads: 2, Batch: 256, SparseThreads: 8, SparseWorkers: 2, FusionLimit: 0},
	}
	for ci, cfg := range cases {
		for _, rate := range []float64{20, 400} {
			qs := mkQueries(m, rate, 4, int64(100+ci))
			res, err := s.Simulate(cfg, qs, 4)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			if res.Queries != len(qs) {
				t.Fatalf("case %d: lost queries (%d of %d)", ci, res.Queries, len(qs))
			}
			if res.MeanMS <= 0 || math.IsNaN(res.P99MS) || math.IsInf(res.P99MS, 0) {
				t.Fatalf("case %d: bad latencies %+v", ci, res)
			}
			if res.P99MS < res.P50MS {
				t.Fatalf("case %d: tail below median", ci)
			}
		}
	}
}

func TestLatencyAboveServiceFloor(t *testing.T) {
	// No query can finish faster than its minimal batch service time.
	m := model.DLRMRMC2(model.Prod)
	s := New(hw.ServerType("T2"), m)
	cfg := Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 64}
	res, err := s.Evaluate(cfg, 10, 55)
	if err != nil {
		t.Fatal(err)
	}
	// One 10-item batch at zero contention is the absolute floor.
	floor := costmodel.CPUBatch(s.Params, s.HW, s.Graph, s.Graph.AllOps(), 10, 0.5, 1, 2, false, s.LUT)
	if res.P50MS*1e-3 < floor.ServiceS {
		t.Fatalf("median latency %.4f s below single-batch floor %.4f s",
			res.P50MS*1e-3, floor.ServiceS)
	}
}
