package experiments

import (
	"fmt"
	"strings"

	"hercules/internal/fleet"
)

// The regions experiment scores geo-routing during a full-region
// outage: two regions (east, west) run the small fleet six diurnal
// hours apart, east blacks out for three hours mid-day, and the
// survivors absorb the 1.5x displaced flash crowd. The comparison is
// the local-only policy (east's traffic has nowhere to go) against
// overflow spill (east evacuates to west, paying the inter-region
// RTT) — SLA violation minutes and drop fraction during the outage
// are the paper-style claim: failover turns a regional outage from
// dropped traffic into a latency tax.

// RegionsScenario is the outage drill: east dark from hour 9 to 12.
const RegionsScenario = `{"name":"east-blackout","events":[{"kind":"blackout","region":"east","start_h":9,"end_h":12}]}`

// RegionsSpec is the experiment's two-region run spec: DefaultSpec
// per region, west phase-shifted six hours (its peak lands while east
// is in its valley, which is what gives spill its headroom), 60 ms
// RTT between them.
func RegionsSpec(geo string, seed int64) fleet.Spec {
	spec := fleet.DefaultSpec()
	spec.Router = fleet.PowerOfTwo
	spec.Models = append([]string(nil), FleetModels...)
	spec.Scenario = RegionsScenario
	spec.Geo = geo
	spec.Regions = []fleet.RegionSpec{
		{Name: "east", RTTMS: map[string]float64{"west": 60}},
		{Name: "west", PhaseH: -6},
	}
	spec.Options.MaxQueriesPerInterval = 25000
	spec.Options.Seed = seed
	return spec
}

// FigRegionsResult holds the local-only and spill replays of the same
// outage day.
type FigRegionsResult struct {
	Local fleet.DayResult
	Spill fleet.DayResult
}

// FigRegions replays the two-region blackout day under both geo
// policies.
func FigRegions(seed int64) (FigRegionsResult, error) {
	var res FigRegionsResult
	table, err := FleetTable()
	if err != nil {
		return res, err
	}
	run := func(geo string) (fleet.DayResult, error) {
		me, meErr := fleet.NewMultiEngine(RegionsSpec(geo, seed), fleet.WithTable(table))
		if meErr != nil {
			return fleet.DayResult{}, meErr
		}
		return me.RunDay(me.Workloads())
	}
	if res.Local, err = run(fleet.GeoLocal); err != nil {
		return res, err
	}
	if res.Spill, err = run(fleet.GeoSpill); err != nil {
		return res, err
	}
	return res, nil
}

// Render implements Renderer.
func (r FigRegionsResult) Render() string {
	var sb strings.Builder
	header(&sb, "Multi-region blackout failover: local-only vs cross-region spill (east dark 9h-12h, 1.5x survivor crowd)")
	sb.WriteString("geo\tregion\tqueries\tdrop_pct\tsla_viol_min\tspill_served\tmax_p99_ms\tenergy_MJ\n")
	row := func(geo string, d fleet.DayResult) {
		name := d.Region
		if name == "" {
			name = "GLOBAL"
		}
		fmt.Fprintf(&sb, "%s\t%s\t%d\t%.2f\t%.1f\t%d\t%.1f\t%.1f\n",
			geo, name, d.TotalQueries, d.DropFrac*100, d.SLAViolationMin,
			d.SpillInServed, d.MaxP99MS, d.EnergyKJ/1e3)
	}
	for _, day := range []fleet.DayResult{r.Local, r.Spill} {
		for _, reg := range day.Regions {
			row(day.Geo, reg)
		}
		row(day.Geo, day)
	}
	fmt.Fprintf(&sb, "spill vs local: drops %.2f%% -> %.2f%%, SLA violation %.1f -> %.1f min, %d queries served remotely\n",
		r.Local.DropFrac*100, r.Spill.DropFrac*100,
		r.Local.SLAViolationMin, r.Spill.SLAViolationMin,
		r.Spill.SpillInServed)
	return sb.String()
}
