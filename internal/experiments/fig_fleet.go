package experiments

import (
	"fmt"
	"strings"
	"sync"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/workload"
)

// The Fig. 13-online experiment extends the paper's Fig. 13 cluster
// comparison below the provisioning interval: instead of scoring
// policies on aggregate provisioned capacity, it replays every query
// of a diurnal day through internal/fleet and scores router × policy
// combinations on what users experience — SLA-violation minutes,
// drops, tail latency and energy. This is deliberately beyond the
// paper: related HPC characterization work (RZBENCH; Broadwell/Cascade
// Lake analyses) shows aggregate-capacity models hide contention that
// only request-level load exposes.

var (
	fleetTableOnce sync.Once
	fleetTable     *profiler.Table
	fleetTableErr  error
)

// FleetModels are the workloads of the online replay experiment.
var FleetModels = []string{"DLRM-RMC1", "DLRM-RMC2"}

// FleetFleet is the replay cluster: plain CPU, NMP and GPU server
// types at a 76-server scale (the Fig. 8 characterization trio) — the
// fleet registered as "small" (hw.NamedFleet).
func FleetFleet() hw.Fleet { return hw.SmallFleet() }

// FleetTable returns the process-wide calibrated efficiency table for
// the replay experiment: each pair measured once under its default
// serving configuration (seconds) rather than the full Algorithm 1
// search (minutes).
func FleetTable() (*profiler.Table, error) {
	fleetTableOnce.Do(func() {
		models := make([]*model.Model, 0, len(FleetModels))
		for _, name := range FleetModels {
			m, err := model.ByName(name, model.Prod)
			if err != nil {
				fleetTableErr = err
				return
			}
			models = append(models, m)
		}
		fleetTable, fleetTableErr = fleet.CalibrateTable(models, FleetFleet().Types, Seed)
	})
	return fleetTable, fleetTableErr
}

// FleetWorkloads builds the replay day: 24 hourly intervals of diurnal
// load per model, with peaks sized to the fleet so the comparison
// exercises allocation choices rather than raw exhaustion.
func FleetWorkloads(table *profiler.Table, seed int64) []cluster.Workload {
	ws := make([]cluster.Workload, 0, len(FleetModels))
	for i, name := range FleetModels {
		peak := table.MustGet("T2", name).QPS * 18
		cfg := workload.DiurnalConfig{
			Service:    name,
			PeakQPS:    peak,
			ValleyFrac: 0.4,
			PeakHour:   20,
			Days:       1,
			StepMin:    60,
			NoiseStd:   0.02,
			Seed:       seed + int64(i),
		}
		ws = append(ws, cluster.Workload{Model: name, Trace: workload.Synthesize(cfg)})
	}
	return ws
}

// FleetSpec is the experiment's run spec for one router × policy
// cell: DefaultSpec (small fleet, RMC1+RMC2, 15% serving headroom)
// with the per-interval query budget lowered so the full sweep stays
// fast.
func FleetSpec(router, policy string, seed int64) fleet.Spec {
	spec := fleet.DefaultSpec()
	spec.Router = router
	spec.Policy = policy
	spec.Models = append([]string(nil), FleetModels...)
	spec.Options.MaxQueriesPerInterval = 40000
	spec.Options.Seed = seed
	return spec
}

// runFleetSpec builds an engine for the spec over the shared memoized
// calibration table and replays the experiments' common diurnal day.
func runFleetSpec(spec fleet.Spec, seed int64) (fleet.DayResult, error) {
	table, err := FleetTable()
	if err != nil {
		return fleet.DayResult{}, err
	}
	eng, err := fleet.NewEngine(spec, fleet.WithTable(table))
	if err != nil {
		return fleet.DayResult{}, err
	}
	return eng.RunDay(FleetWorkloads(table, seed))
}

// FleetDay replays one full diurnal day for a single router ×
// provisioning policy combination.
func FleetDay(router, policy string, seed int64) (fleet.DayResult, error) {
	return runFleetSpec(FleetSpec(router, policy, seed), seed)
}

// Fig13OnlineResult compares routers × provisioning policies on
// request-level serving quality over one replayed day.
type Fig13OnlineResult struct {
	Rows []fleet.DayResult
}

// Fig13Online replays the day for all four routers under the greedy
// and Hercules provisioning policies.
func Fig13Online(seed int64) (Fig13OnlineResult, error) {
	var res Fig13OnlineResult
	for _, pol := range []string{"greedy", "hercules"} {
		for _, r := range fleet.AllRouters {
			day, err := FleetDay(r, pol, seed)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, day)
		}
	}
	return res, nil
}

// Best returns the row with the fewest SLA-violation minutes (ties
// broken by drops, then energy).
func (r Fig13OnlineResult) Best() fleet.DayResult {
	best := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.SLAViolationMin < best.SLAViolationMin ||
			(row.SLAViolationMin == best.SLAViolationMin && row.TotalDrops < best.TotalDrops) ||
			(row.SLAViolationMin == best.SLAViolationMin && row.TotalDrops == best.TotalDrops &&
				row.EnergyKJ < best.EnergyKJ) {
			best = row
		}
	}
	return best
}

// Render implements Renderer.
func (r Fig13OnlineResult) Render() string {
	var sb strings.Builder
	header(&sb, "Fig. 13-online: request-level day replay, routers x provisioning policies")
	sb.WriteString("policy\trouter\tsla_viol_min\tdrop_pct\tmean_p95_ms\tmax_p99_ms\tenergy_MJ\treprov\tearly\tautoscale\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s\t%s\t%.1f\t%.2f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\n",
			row.Policy, row.Router, row.SLAViolationMin, row.DropFrac*100,
			row.MeanP95MS, row.MaxP99MS, row.EnergyKJ/1e3,
			row.Reprovisions, row.EarlyReprovisions, row.AutoscaleEvents)
	}
	best := r.Best()
	fmt.Fprintf(&sb, "best: %s router under %s provisioning (%.1f violation minutes, %.2f%% drops)\n",
		best.Router, best.Policy, best.SLAViolationMin, best.DropFrac*100)
	sb.WriteString("(beyond-paper experiment: the paper scores provisioning on aggregate capacity;\n")
	sb.WriteString(" this replay scores what queries experience between re-provisioning intervals)\n")
	return sb.String()
}
