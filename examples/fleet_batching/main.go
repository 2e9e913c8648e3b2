// Fleet batching: the throughput/latency trade-off of dynamic
// per-instance batching, measured instead of assumed. The walkthrough
// calibrates a serving table for RMC1 on T2 (seconds), replays one
// diurnal day on a 24-server fleet with a mid-morning ×2.5 flash crowd
// landing between re-provisioning intervals, and compares the
// unbatched engine against dynamic batching (MaxBatch 16, 2 ms
// formation wait): on the smooth stretches batching costs a few
// milliseconds of tail — the formation wait — while during the
// saturated spike the batches grow toward the cap and the same fleet
// serves measurably more of the at-risk traffic. The engine derives
// the pair's effective batch cap from the simulator's measured
// batch-efficiency curve, so the result is the cost model speaking,
// not a tuning constant.
//
//	go run ./examples/fleet_batching
//
// Expected runtime: well under a minute.
package main

import (
	"fmt"
	"os"
	"time"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/workload"
)

func main() {
	m := model.DLRMRMC1(model.Prod)
	fl := hw.Fleet{Types: []hw.Server{hw.ServerType("T2")}, Counts: []int{24}}

	fmt.Fprintln(os.Stderr, "calibrating the T2/RMC1 serving configuration...")
	start := time.Now()
	table, err := fleet.CalibrateTable([]*model.Model{m}, fl.Types, 42)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "calibrated in %v\n\n", time.Since(start).Round(time.Millisecond))

	entry := table.MustGet("T2", m.Name)
	fmt.Printf("profiled pair: T2/%s at %.0f QPS, SLA %.0f ms\n\n", m.Name, entry.QPS, m.SLATargetMS)

	cfg := workload.DiurnalConfig{
		Service: m.Name, PeakQPS: entry.QPS * float64(fl.Counts[0]) * 0.45,
		ValleyFrac: 0.4, PeakHour: 20, Days: 1, StepMin: 60,
		NoiseStd: 0.02, Seed: 42,
	}
	ws := []cluster.Workload{{Model: m.Name, Trace: workload.Synthesize(cfg)}}
	// The scenario rides in the spec as inline JSON (scenario.Parse);
	// RunDay compiles it against the day's geometry.
	crowd := `{"name":"flashcrowd","events":[{"kind":"spike","start_h":9,"end_h":11.5,"ramp_h":0.5,"factor":2.5}]}`

	run := func(maxBatch int, sc string) fleet.DayResult {
		spec := fleet.DefaultSpec()
		spec.Router = fleet.PowerOfTwo
		spec.Scaler = "none" // equal fleet across batch settings
		spec.Options.MaxQueriesPerInterval = 40000
		spec.Options.MaxBatch = maxBatch
		spec.Options.BatchWaitS = 0.002
		spec.Scenario = sc
		eng, err := fleet.NewEngine(spec, fleet.WithTable(table), fleet.WithFleet(fl))
		if err != nil {
			fatal(err)
		}
		day, err := eng.RunDay(ws)
		if err != nil {
			fatal(err)
		}
		return day
	}

	fmt.Printf("%-12s %-6s %14s %9s %12s %11s\n",
		"day", "batch", "sla_viol_min", "drop_pct", "mean_p95_ms", "max_p99_ms")
	for _, sc := range []string{"baseline", crowd} {
		for _, b := range []int{1, 16} {
			day := run(b, sc)
			fmt.Printf("%-12s %-6d %14.1f %9.3f %12.1f %11.1f\n",
				day.Scenario, b, day.SLAViolationMin, day.DropFrac*100,
				day.MeanP95MS, day.MaxP99MS)
		}
	}

	fmt.Println("\non the smooth day batching only buys latency (the formation wait);")
	fmt.Println("under the flash crowd the same 24 servers drop visibly less traffic —")
	fmt.Println("queue pressure grows the batches toward the cap exactly when the")
	fmt.Println("measured whole-server amortization is worth having.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleet_batching:", err)
	os.Exit(1)
}
