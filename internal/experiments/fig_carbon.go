package experiments

import (
	"fmt"
	"strings"

	"hercules/internal/fleet"
	"hercules/internal/grid"
)

// The carbon experiment prices the online replay's measured energy
// against a grid carbon-intensity timeline and sweeps the carbon-aware
// control pair — the "carbon" autoscaler (headroom follows the grid)
// plus the "carbon" admission policy (deferrable-class work waits out
// the dirtiest hours) — against the latency-only scalers on two grids
// and under a power-cap drill. The question the sweep answers is the
// carbon-vs-SLA pareto: how many grams of CO2 per day the carbon pair
// saves over latency-only provisioning, and how many SLA-violation
// minutes it pays for them.

// CarbonPolicies are the scaler × admission pairs the sweep scores.
// "prop" is the latency-only reference the headline compares against.
var CarbonPolicies = []struct {
	Scaler    string
	Admission string
}{
	{"prop", "none"},
	{"breach", "none"},
	{"carbon", "carbon"},
}

// CarbonCurves are the grid presets each policy pair is priced on: the
// solar duck curve (deep midday valley, steep evening ramp — exactly
// out of phase with the diurnal traffic peak) and the coal-heavy flat
// grid, where time-shifting buys nothing and the carbon policies
// should degrade gracefully to their latency backstops.
var CarbonCurves = []string{"duck", "coal"}

// CarbonCaps are the power envelopes each cell runs under: uncapped,
// and an evening power-cap drill holding the 60-server T2 pool to
// 7 kW total (two thirds of its 10.5 kW aggregate TDP) across the
// dirty evening ramp.
var CarbonCaps = []struct {
	Name     string
	Scenario string
}{
	{"nocap", ""},
	{"cap7kW", `{"name":"powercap-evening","events":[` +
		`{"kind":"powercap","type":"T2","watts":7000,"start_h":17,"end_h":22}]}`},
}

// CarbonSpec is the sweep's run spec for one policy × curve × cap
// cell: the Fig. 13-online configuration with the grid timeline
// attached and the carbon (or reference) control pair selected.
func CarbonSpec(scaler, admission, curve, capScenario string, seed int64) fleet.Spec {
	spec := fleet.DefaultSpec()
	spec.Scaler = scaler
	spec.Admission = admission
	spec.Scenario = capScenario
	spec.Models = append([]string(nil), FleetModels...)
	spec.Grid = grid.Spec{Curve: curve}
	spec.Options.MaxQueriesPerInterval = 25000
	spec.Options.Seed = seed
	return spec
}

// CarbonDay replays one diurnal day under the duck-curve grid with the
// carbon scaler + admission pair and no power cap — the
// BenchmarkFleetDayCarbon subject.
func CarbonDay(seed int64) (fleet.DayResult, error) {
	return runFleetSpec(CarbonSpec("carbon", "carbon", "duck", "", seed), seed)
}

// CarbonRow is one cell of the sweep.
type CarbonRow struct {
	Scaler    string
	Admission string
	Curve     string
	Cap       string
	Day       fleet.DayResult
}

// FigCarbonResult holds the policy × curve × cap sweep.
type FigCarbonResult struct {
	Rows []CarbonRow
}

// FigCarbon replays the diurnal day for every policy pair on every
// grid curve under every power envelope.
func FigCarbon(seed int64) (FigCarbonResult, error) {
	var res FigCarbonResult
	for _, curve := range CarbonCurves {
		for _, cap := range CarbonCaps {
			for _, pol := range CarbonPolicies {
				day, err := runFleetSpec(
					CarbonSpec(pol.Scaler, pol.Admission, curve, cap.Scenario, seed), seed)
				if err != nil {
					return res, err
				}
				res.Rows = append(res.Rows, CarbonRow{
					Scaler: pol.Scaler, Admission: pol.Admission,
					Curve: curve, Cap: cap.Name, Day: day,
				})
			}
		}
	}
	return res, nil
}

// Cell returns the row for one scaler × curve × cap combination.
func (r FigCarbonResult) Cell(scaler, curve, cap string) (CarbonRow, bool) {
	for _, row := range r.Rows {
		if row.Scaler == scaler && row.Curve == curve && row.Cap == cap {
			return row, true
		}
	}
	return CarbonRow{}, false
}

// Render implements Renderer.
func (r FigCarbonResult) Render() string {
	var sb strings.Builder
	header(&sb, "Carbon pareto: scaler+admission x grid curve x power cap (gCO2 vs SLA)")
	sb.WriteString("curve\tcap\tscaler\tadmission\tco2_kg\tg_per_query\tsla_viol_min\tdrop_pct\tshed_pct\tenergy_MJ\n")
	for _, row := range r.Rows {
		d := row.Day
		shedPct := 0.0
		if d.TotalQueries > 0 {
			shedPct = float64(d.TotalShed) / float64(d.TotalQueries) * 100
		}
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t%.2f\t%.3f\t%.1f\t%.2f\t%.2f\t%.1f\n",
			row.Curve, row.Cap, row.Scaler, row.Admission,
			d.TotalCarbonG/1e3, d.CarbonPerQueryG, d.SLAViolationMin,
			d.DropFrac*100, shedPct, d.EnergyKJ/1e3)
	}
	// Headline: what the carbon pair saves over latency-only
	// provisioning per curve and envelope, and the SLA minutes it pays.
	for _, curve := range CarbonCurves {
		for _, cap := range CarbonCaps {
			ref, okR := r.Cell("prop", curve, cap.Name)
			car, okC := r.Cell("carbon", curve, cap.Name)
			if !okR || !okC || ref.Day.TotalCarbonG <= 0 {
				continue
			}
			save := (1 - car.Day.TotalCarbonG/ref.Day.TotalCarbonG) * 100
			fmt.Fprintf(&sb, "%s/%s: carbon pair %.2f kg (%.1f%% vs prop's %.2f kg), sla %.1f vs %.1f min\n",
				curve, cap.Name, car.Day.TotalCarbonG/1e3, save,
				ref.Day.TotalCarbonG/1e3, car.Day.SLAViolationMin, ref.Day.SLAViolationMin)
		}
	}
	sb.WriteString("(beyond-paper experiment: prices the replay's measured joules on a grid\n")
	sb.WriteString(" intensity timeline; deferrable-class work waits out the dirtiest hours)\n")
	return sb.String()
}
