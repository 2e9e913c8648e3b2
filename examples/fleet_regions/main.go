// Multi-region failover: what cross-region spill buys when a whole
// region goes dark. The walkthrough builds a two-region fleet — east
// and west, six diurnal hours apart, 60 ms of RTT between them —
// blacks out east for three mid-day hours (its fleet goes to zero and
// the survivors absorb a 1.5x flash crowd), and replays the same day
// under both geo policies: local-only, where east's traffic has
// nowhere to go, and spill, where east evacuates to west's headroom
// and every remotely served query pays the RTT. The comparison is the
// failover trade in miniature: spill converts dropped traffic into a
// latency tax on the survivor.
//
//	go run ./examples/fleet_regions
//
// Expected runtime: well under a minute.
package main

import (
	"fmt"
	"os"

	"hercules/internal/fleet"
)

func main() {
	spec := fleet.DefaultSpec()
	spec.Router = fleet.PowerOfTwo
	spec.Models = []string{"DLRM-RMC1"}
	spec.Scenario = `{"name":"east-blackout","events":[{"kind":"blackout","region":"east","start_h":9,"end_h":12}]}`
	spec.Regions = []fleet.RegionSpec{
		{Name: "east", RTTMS: map[string]float64{"west": 60}},
		{Name: "west", PhaseH: -6},
	}
	spec.Options.MaxQueriesPerInterval = 20000

	run := func(geo string) fleet.DayResult {
		spec.Geo = geo
		me, err := fleet.NewMultiEngine(spec)
		if err != nil {
			fatal(err)
		}
		day, err := me.RunDay(me.Workloads())
		if err != nil {
			fatal(err)
		}
		return day
	}

	fmt.Fprintln(os.Stderr, "calibrating and replaying two region-days per policy...")
	local := run(fleet.GeoLocal)
	spill := run(fleet.GeoSpill)

	fmt.Println("east dark 9h-12h, west six hours phase-shifted (p2c router, hercules provisioning):")
	fmt.Println()
	fmt.Printf("%-6s %-7s %9s %9s %13s %13s %11s\n",
		"geo", "region", "queries", "drop_pct", "sla_viol_min", "spill_served", "max_p99_ms")
	for _, day := range []fleet.DayResult{local, spill} {
		for _, reg := range day.Regions {
			fmt.Printf("%-6s %-7s %9d %9.2f %13.1f %13d %11.1f\n",
				day.Geo, reg.Region, reg.TotalQueries, reg.DropFrac*100,
				reg.SLAViolationMin, reg.SpillInServed, reg.MaxP99MS)
		}
		fmt.Printf("%-6s %-7s %9d %9.2f %13.1f %13d %11.1f\n",
			day.Geo, "GLOBAL", day.TotalQueries, day.DropFrac*100,
			day.SLAViolationMin, day.SpillInServed, day.MaxP99MS)
	}

	fmt.Printf("\nthe failover trade: drops %.2f%% -> %.2f%%, SLA violation %.0f -> %.0f min,\n",
		local.DropFrac*100, spill.DropFrac*100, local.SLAViolationMin, spill.SLAViolationMin)
	fmt.Printf("%d queries served remotely at +60 ms RTT each\n", spill.SpillInServed)

	// The outage hour by hour on the spill day: west's spill intake and
	// the latency it pays for it are per-interval observables.
	fmt.Println("\nspill day, west through the blackout window:")
	west := spill.Regions[1]
	for _, ist := range west.Steps {
		if ist.SpillInServed > 0 || ist.SpillInDropped > 0 {
			fmt.Printf("  hour %4.1f: served %5d remote (dropped %4d), p99 %6.1f ms\n",
				ist.TimeH, ist.SpillInServed, ist.SpillInDropped, ist.P99MS)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleet_regions:", err)
	os.Exit(1)
}
