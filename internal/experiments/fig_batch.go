package experiments

import (
	"fmt"
	"strings"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/scenario"
	"hercules/internal/stats"
	"hercules/internal/workload"
)

// The batching experiment extends the Fig. 13-online replay with the
// serving lever the paper's aggregate model cannot express: dynamic
// per-instance batching, priced by a batch-dimension extension of the
// profiled service-time grids (internal/sim evaluated at representative
// batch sizes per pair). Two measurements, in the spirit of the HPC
// characterization literature's "measure the throughput curve, don't
// assume it":
//
//  1. Latency-bounded fleet throughput: a fixed pool of identical
//     servers is swept over offered load for each batch cap and
//     router, and the pool's capacity — the highest load served with
//     tails inside the SLA and no drops — is read off the curve. This
//     is the fleet analogue of the paper's per-server latency-bounded
//     QPS, and it is where the batching payoff (and its
//     architecture-dependence) shows directly.
//  2. A full-day replay under spike timelines (internal/scenario) on a
//     provisioned fleet, confirming the engine's adaptive per-pair
//     batch caps collect those gains without regressing the smooth
//     day.

// BatchSizes are the dynamic-batching caps the sweep compares (1 is
// the unbatched baseline).
var BatchSizes = []int{1, 4, 16}

// BatchRouters are the routing policies compared under batching: the
// two strongest state-aware policies from the Fig. 13-online replay.
var BatchRouters = []string{fleet.PowerOfTwo, fleet.WeightedHetero}

// BatchServers are the pool server types of the capacity sweep: the
// Fig. 8 characterization trio (DDR4 CPU, NMP, GPU).
var BatchServers = []string{"T2", "T3", "T7"}

// BatchSpikes are the load regimes of the day replay: mid-morning
// spike factors injected through the scenario timeline machinery
// between scheduled re-provisions (hour 9 to 11.5 against the hour-8
// allocation). 1 is the smooth diurnal baseline; 2.5 is the
// flash-crowd factor, which saturates the stale allocation and makes
// goodput the discriminating metric.
var BatchSpikes = []float64{1, 2.5}

// batchModel is the capacity sweep's workload: the memory-dominated
// RMC1, whose 20 ms SLA makes over-batching visibly expensive.
const batchModel = "DLRM-RMC1"

const (
	// batchWaitS is the batch-formation wait window: 2 ms, a tenth of
	// RMC1's 20 ms SLA, so the latency cost of batching stays visible
	// but bounded.
	batchWaitS = 0.002
	// batchPoolServers / batchPoolSliceS size one capacity-sweep cell.
	batchPoolServers = 8
	batchPoolSliceS  = 10.0
)

// batchLoadLadder sweeps offered load as a fraction of the pool's
// profiled (unbatched) capacity.
var batchLoadLadder = []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5}

// batchSpec mirrors the scenario sweep's budget with batching enabled
// and the autoscaler off (equal fleet across batch settings: the
// provisioner must see only offered load).
func batchSpec(router string, seed int64, maxBatch int) fleet.Spec {
	spec := FleetSpec(router, "hercules", seed)
	spec.Models = []string{batchModel}
	spec.Scaler = "none"
	spec.Options.MaxQueriesPerInterval = 25000
	spec.Options.MaxBatch = maxBatch
	spec.Options.BatchWaitS = batchWaitS
	return spec
}

// BatchFleet is the day replay's cluster: a single-type T2 fleet
// serving the capacity sweep's model, so the spike's damage (and the
// batcher's rescue) is attributable to one measured batch curve rather
// than averaged across types. Part 1 carries the cross-architecture
// comparison.
func BatchFleet() hw.Fleet {
	return hw.Fleet{Types: []hw.Server{hw.ServerType("T2")}, Counts: []int{24}}
}

// batchWorkloads sizes the day's diurnal peak to ~45% of the batch
// fleet's profiled capacity — high enough that the stale hour-8
// allocation saturates under the flash-crowd factor, low enough that
// the smooth day serves clean.
func batchWorkloads(table *profiler.Table, seed int64) []cluster.Workload {
	fl := BatchFleet()
	var capQPS float64
	if e, ok := table.Get(fl.Types[0].Type, batchModel); ok {
		capQPS = e.QPS * float64(fl.Counts[0])
	}
	cfg := workload.DiurnalConfig{
		Service:    batchModel,
		PeakQPS:    capQPS * 0.45,
		ValleyFrac: 0.4,
		PeakHour:   20,
		Days:       1,
		StepMin:    60,
		NoiseStd:   0.02,
		Seed:       seed,
	}
	return []cluster.Workload{{Model: batchModel, Trace: workload.Synthesize(cfg)}}
}

// batchSpike compiles one day-replay load regime: a factor-f spike
// from hour 9 to 11.5 with half-hour ramps — inside the stale window
// of the hour-8 scheduled allocation.
func batchSpike(factor float64) scenario.Scenario {
	if factor == 1 {
		return scenario.Scenario{Name: "baseline"}
	}
	return scenario.Scenario{
		Name: fmt.Sprintf("spike-x%.2f", factor),
		Events: []scenario.Event{
			{Kind: scenario.Spike, StartH: 9, EndH: 11.5, RampH: 0.5, Factor: factor},
		},
	}
}

// BatchCapacityRow is one cell of the latency-bounded-throughput
// sweep: a fixed pool of identical servers at one batch cap under one
// router.
type BatchCapacityRow struct {
	Server string
	Router string
	Batch  int
	// LBTQPS is the highest ladder load the pool served with p95
	// inside the SLA and zero drops (0 when even the lightest load
	// breached).
	LBTQPS float64
	// GainX is LBTQPS over the batch-1 pool's LBTQPS (1 for batch 1).
	GainX float64
	// P95AtCapMS is the pool tail at the capacity point.
	P95AtCapMS float64
}

// BatchDayRow is one cell of the day-replay sweep.
type BatchDayRow struct {
	Batch int
	Day   fleet.DayResult
}

// FigBatchResult holds both parts of the dynamic-batching experiment.
type FigBatchResult struct {
	Capacity []BatchCapacityRow
	Days     []BatchDayRow
}

// FigBatch runs the dynamic-batching sweep: the pool capacity curves
// (batch size × router × load ladder per server type), then the
// spike-timeline day replays at equal fleet size (the autoscaler is
// disabled so provisioning depends only on offered load, identical
// across batch settings).
func FigBatch(seed int64) (FigBatchResult, error) {
	table, err := FleetTable()
	if err != nil {
		return FigBatchResult{}, err
	}
	var res FigBatchResult

	// Part 1: latency-bounded throughput of fixed pools.
	m, err := model.ByName(batchModel, model.Prod)
	if err != nil {
		return res, err
	}
	src := fleet.SharedSimService(table)
	for _, server := range BatchServers {
		entry, ok := table.Get(server, batchModel)
		if !ok || entry.QPS <= 0 {
			return res, fmt.Errorf("experiments: no profiled capacity for %s/%s", server, batchModel)
		}
		svc := src.PairService(server, batchModel)
		conc := concurrencyFor(entry.QPS, svc)
		// One pool per batch cap, reused across routers and ladder steps
		// (ReplaySlice resets every instance before replaying).
		pools := make(map[int][]*fleet.Instance, len(BatchSizes))
		for _, b := range BatchSizes {
			pools[b] = batchPool(server, entry.QPS, conc, b, src.PairBatchEff(server, batchModel, b), svc)
		}
		for _, router := range BatchRouters {
			var base float64
			for _, b := range BatchSizes {
				row := BatchCapacityRow{Server: server, Router: router, Batch: b}
				for _, f := range batchLoadLadder {
					offered := f * entry.QPS * batchPoolServers
					queries := workload.NewGenerator(m, offered, stats.MixSeed(seed, int64(b), stats.HashString(server), int64(f*100))).Until(batchPoolSliceS)
					sl := fleet.ReplaySlice(router, pools[b], queries, seed)
					if sl.Dropped > 0 || len(sl.LatS) == 0 {
						continue
					}
					for i := range sl.LatS {
						sl.LatS[i] *= 1e3
					}
					if p95 := stats.PercentileSelect(sl.LatS, 95); p95 <= m.SLATargetMS && offered > row.LBTQPS {
						row.LBTQPS = offered
						row.P95AtCapMS = p95
					}
				}
				if b == 1 {
					base = row.LBTQPS
				}
				if base > 0 {
					row.GainX = row.LBTQPS / base
				}
				res.Capacity = append(res.Capacity, row)
			}
		}
	}

	// Part 2: full-day replays under the spike timelines.
	ws := batchWorkloads(table, seed)
	for _, factor := range BatchSpikes {
		sc := batchSpike(factor)
		for _, r := range BatchRouters {
			for _, b := range []int{1, BatchSizes[len(BatchSizes)-1]} {
				eng, err := fleet.NewEngine(batchSpec(r, seed, b),
					fleet.WithTable(table), fleet.WithFleet(BatchFleet()))
				if err != nil {
					return res, err
				}
				if err := eng.ApplyScenario(sc, ws); err != nil {
					return res, err
				}
				day, err := eng.RunDay(ws)
				if err != nil {
					return res, err
				}
				res.Days = append(res.Days, BatchDayRow{Batch: b, Day: day})
			}
		}
	}
	return res, nil
}

// batchPool builds one capacity-sweep pool: identical instances of the
// pair with conc calibrated channels, batching enabled at cap b
// (b > 1) with the measured efficiency curve.
func batchPool(server string, qps float64, conc, b int, eff []float64, svc func(int, float64) float64) []*fleet.Instance {
	pool := make([]*fleet.Instance, batchPoolServers)
	for i := range pool {
		in := fleet.NewInstance(i, server, batchModel, qps, conc, 32, svc)
		if b > 1 && eff != nil {
			in.EnableBatching(b, batchWaitS, eff)
		}
		pool[i] = in
	}
	return pool
}

// concurrencyFor mirrors the engine's channel calibration for the
// sweep's pools: enough channels that c / E[solo] reaches the profiled
// capacity, with E[solo] estimated over the default size distribution.
func concurrencyFor(qps float64, svc func(int, float64) float64) int {
	r := stats.NewRand(0x5eed)
	d := workload.DefaultQuerySizes()
	var sum float64
	n := 0
	for i := 0; i < 128; i++ {
		v := svc(d.Draw(r), 1)
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 1
	}
	c := int(qps*sum/float64(n)) + 1
	return stats.ClampInt(c, 1, 256)
}

// Unbatched returns the batch-1 day row matching the given row's
// router and scenario (the divergence reference).
func (r FigBatchResult) Unbatched(row BatchDayRow) (BatchDayRow, bool) {
	for _, b := range r.Days {
		if b.Batch == 1 && b.Day.Scenario == row.Day.Scenario && b.Day.Router == row.Day.Router {
			return b, true
		}
	}
	return BatchDayRow{}, false
}

// Render implements Renderer.
func (r FigBatchResult) Render() string {
	var sb strings.Builder
	header(&sb, "Batching 1: latency-bounded pool throughput, batch x router x load ladder")
	sb.WriteString("server\trouter\tbatch\tlbt_qps\tgain_x\tp95_at_cap_ms\n")
	for _, row := range r.Capacity {
		fmt.Fprintf(&sb, "%s\t%s\t%d\t%.0f\t%.2f\t%.1f\n",
			row.Server, row.Router, row.Batch, row.LBTQPS, row.GainX, row.P95AtCapMS)
	}
	sb.WriteString("(8-server pools of one (type, model) pair; capacity = max ladder load with p95 <= SLA\n")
	sb.WriteString(" and no drops. The payoff is a measured architecture property: the DDR4 pair's strong\n")
	sb.WriteString(" amortization curve nets real capacity, while the NMP/GPU pairs' calibrated channel\n")
	sb.WriteString(" models already extract their headroom and over-batching only buys latency.)\n\n")
	header(&sb, "Batching 2: day replay under spike timelines, adaptive per-pair caps")
	sb.WriteString("scenario\trouter\tbatch\tsla_viol_min\tdrop_pct\tmean_p95_ms\tmax_p99_ms\tenergy_MJ\n")
	for _, row := range r.Days {
		d := row.Day
		fmt.Fprintf(&sb, "%s\t%s\t%d\t%.1f\t%.3f\t%.1f\t%.1f\t%.1f\n",
			d.Scenario, d.Router, row.Batch, d.SLAViolationMin, d.DropFrac*100,
			d.MeanP95MS, d.MaxP99MS, d.EnergyKJ/1e3)
	}
	sb.WriteString("(equal fleet per scenario: the autoscaler is off, so provisioning sees only offered\n")
	sb.WriteString(" load; the engine derives each pair's batch cap from its measured efficiency curve\n")
	sb.WriteString(" and SLA budget, refusing pairs where batching loses)\n")
	return sb.String()
}
