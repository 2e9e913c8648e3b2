// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (plus the DESIGN.md ablations). Each benchmark runs the
// experiment end-to-end on the simulated substrate, prints the same rows
// or series the paper reports, and exposes the headline quantities as
// benchmark metrics.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// These are paper figures, not performance gates: the fleet replay's
// speed is measured by fleetbench (fleetbench/README.md), which CI's
// bench-gate job runs against BENCH_fleet.json.
//
// Individual figures: go test -bench=BenchmarkFig14 etc. The expensive
// shared artifact (the Fig. 9b efficiency table over 6 models × 10
// server types) is built once per process and reused by the Fig. 8 /
// 15 / 16 / 17 and headline benchmarks.
package hercules_test

import (
	"fmt"
	"testing"

	"hercules/internal/experiments"
)

// printOnce renders the experiment output on the first iteration only.
func printOnce(b *testing.B, i int, r experiments.Renderer) {
	b.Helper()
	if i == 0 {
		fmt.Println(r.Render())
	}
}

func BenchmarkTableI_ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI()
		printOnce(b, i, r)
		b.ReportMetric(float64(len(r.Rows)), "models")
	}
}

func BenchmarkTableII_ServerTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableII()
		printOnce(b, i, r)
		b.ReportMetric(float64(len(r.Rows)), "server_types")
	}
}

func BenchmarkFig1_ModelFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1ModelFootprint()
		printOnce(b, i, r)
		var memDom int
		for _, row := range r.Rows {
			if row.Region == "memory-dominated" {
				memDom++
			}
		}
		b.ReportMetric(float64(memDom), "memory_dominated_models")
	}
}

func BenchmarkFig2b_QuerySizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2bQuerySizes(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.P99, "p99_items")
		b.ReportMetric(r.TailHeavyRatio, "p99_over_p50")
	}
}

func BenchmarkFig2c_PoolingFactors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2cPoolingFactors(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(float64(len(r.Rows)), "tables")
	}
}

func BenchmarkFig2d_DiurnalLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2dDiurnalLoad(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.Fluctuation*100, "fluctuation_pct")
	}
}

func BenchmarkFig4_HostParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4HostParallelism(experiments.Seed)
		printOnce(b, i, r)
		// Report the tight-SLA advantage of 10×2 over 20×1 (paper: ≤1.35×).
		var q20, q10 float64
		for _, row := range r.Rows {
			if row.SLAMS <= 15 {
				if row.Config == "10x2" {
					q10 += row.QPS
				} else {
					q20 += row.QPS
				}
			}
		}
		if q20 > 0 {
			b.ReportMetric(q10/q20, "tight_sla_gain_x")
		}
	}
}

func BenchmarkFig5_OpWorkerIdle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5OpWorkerIdle()
		printOnce(b, i, r)
		var maxIdle float64
		for _, row := range r.Rows {
			if row.IdleFrac > maxIdle {
				maxIdle = row.IdleFrac
			}
		}
		b.ReportMetric(maxIdle*100, "max_idle_pct")
	}
}

func BenchmarkFig6_AcceleratorPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6AcceleratorPolicies(experiments.Seed)
		printOnce(b, i, r)
		// Fusion gain over Baymax (paper: up to 2.95×/7.87×/6.0×).
		best := map[string]map[string]float64{}
		for _, row := range r.Rows {
			if best[row.Model] == nil {
				best[row.Model] = map[string]float64{}
			}
			if row.QPS > best[row.Model][row.Policy] {
				best[row.Model][row.Policy] = row.QPS
			}
		}
		var maxGain float64
		for _, m := range best {
			if m["Baymax"] > 0 && m["CoLoc+Fusion"]/m["Baymax"] > maxGain {
				maxGain = m["CoLoc+Fusion"] / m["Baymax"]
			}
		}
		b.ReportMetric(maxGain, "max_fusion_gain_x")
	}
}

func BenchmarkFig7_FusionBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7FusionBreakdown(experiments.Seed)
		printOnce(b, i, r)
		// RMC3's data-loading share at the largest fusion point.
		for _, row := range r.Rows {
			if row.Model == "DLRM-RMC3" && row.FusionLimit == 6000 {
				b.ReportMetric(row.LoadFrac*100, "rmc3_load_pct")
			}
		}
	}
}

func BenchmarkFig8_ClusterCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8ClusterCharacterization(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.GreedyVsNHPeak*100, "greedy_vs_nh_peak_pct")
		b.ReportMetric(r.PriorityVsGreedyPeak*100, "priority_vs_greedy_peak_pct")
	}
}

func BenchmarkFig11_ParallelismSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11ParallelismSpace(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(float64(r.PathEval), "gradient_evals")
		b.ReportMetric(float64(r.GridEval), "grid_points")
	}
}

func BenchmarkFig12_SDPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12SDPipeline(experiments.Seed)
		printOnce(b, i, r)
		var peak float64
		for _, row := range r.CPURows {
			if row.QPS > peak {
				peak = row.QPS
			}
		}
		b.ReportMetric(peak, "cpu_sd_peak_qps")
	}
}

func BenchmarkFig14_TaskSchedulerSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14TaskSchedulerSpeedup(experiments.Seed, nil)
		printOnce(b, i, r)
		_, max := r.MaxSpeedup()
		b.ReportMetric(max, "max_speedup_x")
		b.ReportMetric(r.MinSpeedup(), "min_speedup_x")
	}
}

func BenchmarkFig15_ServerArchExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15ServerArchExploration()
		printOnce(b, i, r)
		b.ReportMetric(float64(len(r.Rows)), "pairs")
	}
}

func BenchmarkFig16_ModelEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16ModelEvolution(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.CapacityGrowth, "d2_over_d1_capacity_x")
		b.ReportMetric(r.PowerGrowth, "d2_over_d1_power_x")
	}
}

func BenchmarkFig17_ClusterSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17ClusterSchedulers(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.CapSavePeak*100, "capacity_saving_peak_pct")
		b.ReportMetric(r.PowerSavePeak*100, "power_saving_peak_pct")
	}
}

func BenchmarkHeadline_HerculesVsGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17ClusterSchedulers(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.CapSavePeak*100, "capacity_peak_pct_paper_47.7")
		b.ReportMetric(r.CapSaveAvg*100, "capacity_avg_pct_paper_22.8")
		b.ReportMetric(r.PowerSavePeak*100, "power_peak_pct_paper_23.7")
		b.ReportMetric(r.PowerSaveAvg*100, "power_avg_pct_paper_9.1")
	}
}

func BenchmarkFig13Online_FleetReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13Online(experiments.Seed)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r)
		best := r.Best()
		b.ReportMetric(best.SLAViolationMin, "best_sla_violation_min")
		b.ReportMetric(float64(len(r.Rows)), "router_policy_combos")
	}
}

// BenchmarkFigScenarios_NonStationary sweeps the named non-stationary
// scenarios (flash crowd, regional shift, server failure) against the
// baseline diurnal replay for every scenario router, with and without
// the online autoscaler.
func BenchmarkFigScenarios_NonStationary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FigScenarios(experiments.Seed)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r)
		var worst float64
		for _, row := range r.Rows {
			if base, ok := r.Baseline(row); ok {
				worst = max(worst, row.Day.SLAViolationMin-base.Day.SLAViolationMin)
			}
		}
		b.ReportMetric(worst, "worst_added_violation_min")
		b.ReportMetric(float64(len(r.Rows)), "scenario_router_combos")
	}
}

func BenchmarkAblation_NoContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationNoContention(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.With10x2/r.With20x1, "gain_with_contention_x")
		b.ReportMetric(r.Without10x2/r.Without20x1, "gain_without_contention_x")
	}
}

func BenchmarkAblation_SearchVsExhaustive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationSearchVsExhaustive(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.GradientQPS/r.ExhaustiveQPS*100, "optimality_pct")
		b.ReportMetric(float64(r.ExhaustiveEvals)/float64(r.GradientEvals), "eval_savings_x")
	}
}

func BenchmarkAblation_NoHotPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationNoHotPartition(experiments.Seed)
		printOnce(b, i, r)
		b.ReportMetric(r.HotMass*100, "hot_mass_pct")
	}
}

func BenchmarkAblation_LPRounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationLPRounding(experiments.Seed)
		printOnce(b, i, r)
		if r.RepairPowerKW > 0 {
			b.ReportMetric((r.CeilPowerKW/r.RepairPowerKW-1)*100, "ceiling_overhead_pct")
		}
	}
}
