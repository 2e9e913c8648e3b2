package experiments

import (
	"fmt"
	"strings"

	"hercules/internal/fleet"
)

// The scenario experiment extends the Fig. 13-online replay from the
// smooth diurnal day to the non-stationary traffic that dominates real
// at-scale serving: flash crowds, regional failover and capacity loss
// (internal/scenario). Steady-state numbers are misleading under these
// regimes — the HPC characterization literature makes the same point
// for batch clusters — so the driver scores every router with and
// without the online autoscaler under each named scenario and reports
// what queries experienced: SLA-violation minutes, drops, shed traffic
// and peak tails.

// ScenarioNames are the scenarios the driver sweeps, baseline first so
// every other row reads as a divergence from it.
var ScenarioNames = []string{"baseline", "flashcrowd", "regionshift", "failure"}

// ScenarioRouters are the routing policies compared under each
// scenario: the load-oblivious baseline and the two strongest
// state-aware policies from the Fig. 13-online comparison.
var ScenarioRouters = []string{fleet.RoundRobin, fleet.PowerOfTwo, fleet.WeightedHetero}

// ScenarioPolicyCells are the registry-selected serving policies the
// sweep additionally scores under every scenario (on the p2c router):
// the target-utilization proportional autoscaler and the
// deadline-aware admission shedder — the two policies that ship
// through the policy registry rather than the engine's built-in
// defaults.
var ScenarioPolicyCells = []struct{ Scaler, Admission string }{
	{Scaler: "prop"},
	{Scaler: "breach", Admission: "deadline"},
}

// ScenarioSpec is the sweep's run spec for one cell: the Fig.
// 13-online configuration with the per-interval query budget lowered
// so the full scenario × router × policy sweep stays interactive, and
// the named scenario injected through the spec.
func ScenarioSpec(name, router string, seed int64) fleet.Spec {
	spec := fleet.DefaultSpec()
	spec.Router = router
	spec.Models = append([]string(nil), FleetModels...)
	spec.Scenario = name
	spec.Options.MaxQueriesPerInterval = 25000
	spec.Options.Seed = seed
	return spec
}

// ScenarioDay replays one diurnal day under the named scenario with the
// given router, provisioning with the Hercules LP policy (autoscale
// toggles the online autoscaler). It shares the memoized calibration
// table with the Fig. 13-online experiment.
func ScenarioDay(name, router string, autoscale bool, seed int64) (fleet.DayResult, error) {
	spec := ScenarioSpec(name, router, seed)
	if !autoscale {
		spec.Scaler = "none"
	}
	return runFleetSpec(spec, seed)
}

// ScenarioRow is one cell of the sweep.
type ScenarioRow struct {
	Autoscaled bool
	Day        fleet.DayResult
}

// FigScenariosResult holds the scenario × router × autoscaler sweep.
type FigScenariosResult struct {
	Rows []ScenarioRow
}

// FigScenarios replays every named scenario for every scenario router,
// with and without the online autoscaler, plus one row per
// ScenarioPolicyCells entry (proportional autoscaler, deadline
// admission) on the p2c router.
func FigScenarios(seed int64) (FigScenariosResult, error) {
	var res FigScenariosResult
	for _, name := range ScenarioNames {
		for _, r := range ScenarioRouters {
			for _, autoscale := range []bool{false, true} {
				day, err := ScenarioDay(name, r, autoscale, seed)
				if err != nil {
					return res, err
				}
				res.Rows = append(res.Rows, ScenarioRow{Autoscaled: autoscale, Day: day})
			}
		}
		for _, cell := range ScenarioPolicyCells {
			spec := ScenarioSpec(name, fleet.PowerOfTwo, seed)
			spec.Scaler = cell.Scaler
			if cell.Admission != "" {
				spec.Admission = cell.Admission
			}
			day, err := runFleetSpec(spec, seed)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, ScenarioRow{Autoscaled: true, Day: day})
		}
	}
	return res, nil
}

// Baseline returns the baseline-scenario row matching the given row's
// router, autoscaler setting and serving policies (the divergence
// reference).
func (r FigScenariosResult) Baseline(row ScenarioRow) (ScenarioRow, bool) {
	for _, b := range r.Rows {
		if b.Day.Scenario == "baseline" && b.Day.Router == row.Day.Router &&
			b.Autoscaled == row.Autoscaled &&
			b.Day.Scaler == row.Day.Scaler && b.Day.Admission == row.Day.Admission {
			return b, true
		}
	}
	return ScenarioRow{}, false
}

// Render implements Renderer.
func (r FigScenariosResult) Render() string {
	var sb strings.Builder
	header(&sb, "Scenarios: non-stationary traffic, routers x autoscaler x serving policies (hercules provisioning)")
	sb.WriteString("scenario\trouter\tscaler\tadmission\tsla_viol_min\tdrop_pct\tshed_pct\tmax_p99_ms\tearly_reprov\tenergy_MJ\n")
	for _, row := range r.Rows {
		d := row.Day
		total := d.TotalQueries + d.TotalShed
		shedPct := 0.0
		if total > 0 {
			shedPct = 100 * float64(d.TotalShed) / float64(total)
		}
		scaler := d.Scaler
		if scaler == "" {
			scaler = "off"
		}
		admission := d.Admission
		if admission == "" {
			admission = "-"
		}
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t%.1f\t%.2f\t%.2f\t%.1f\t%d\t%.1f\n",
			d.Scenario, d.Router, scaler, admission, d.SLAViolationMin, d.DropFrac*100,
			shedPct, d.MaxP99MS, d.EarlyReprovisions, d.EnergyKJ/1e3)
	}
	// Divergence summary: how much damage each scenario adds over its
	// matched baseline, and what the autoscaler claws back.
	for _, name := range ScenarioNames {
		if name == "baseline" {
			continue
		}
		var worst, worstScaled float64
		for _, row := range r.Rows {
			if row.Day.Scenario != name {
				continue
			}
			if base, ok := r.Baseline(row); ok {
				delta := row.Day.SLAViolationMin - base.Day.SLAViolationMin
				if row.Autoscaled {
					worstScaled = max(worstScaled, delta)
				} else {
					worst = max(worst, delta)
				}
			}
		}
		fmt.Fprintf(&sb, "%s: worst added violation %.1f min without autoscaler, %.1f with\n",
			name, worst, worstScaled)
	}
	return sb.String()
}
