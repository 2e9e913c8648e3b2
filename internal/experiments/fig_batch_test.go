package experiments

import (
	"bytes"
	"strings"
	"testing"

	"hercules/internal/fleet"
)

func TestFigBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("replays pool ladders and full days")
	}
	t.Parallel()
	r, err := FigBatch(Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantCap := len(BatchServers) * len(BatchRouters) * len(BatchSizes)
	if len(r.Capacity) != wantCap {
		t.Fatalf("capacity rows = %d, want %d", len(r.Capacity), wantCap)
	}
	wantDays := len(BatchSpikes) * len(BatchRouters) * 2
	if len(r.Days) != wantDays {
		t.Fatalf("day rows = %d, want %d", len(r.Days), wantDays)
	}

	// Part 1: every pool must have a measurable capacity, batch-1 rows
	// anchor gain 1, and the headline — the T2 pair's measured batch
	// amortization must buy >10% latency-bounded throughput at equal
	// pool size under every router.
	for _, row := range r.Capacity {
		if row.LBTQPS <= 0 {
			t.Errorf("%s/%s batch %d: no latency-bounded capacity found", row.Server, row.Router, row.Batch)
		}
		if row.Batch == 1 && row.GainX != 1 {
			t.Errorf("%s/%s batch 1: gain %v, want 1", row.Server, row.Router, row.GainX)
		}
		if row.GainX < 0.7 || row.GainX > 1.7 {
			t.Errorf("%s/%s batch %d: gain %.2f outside the plausible envelope", row.Server, row.Router, row.Batch, row.GainX)
		}
		if row.Server == "T2" && row.Batch == BatchSizes[len(BatchSizes)-1] && row.GainX < 1.1 {
			t.Errorf("T2/%s batch %d: gain %.2f, want >= 1.1 (the measured amortization must show)",
				row.Router, row.Batch, row.GainX)
		}
	}

	// Part 2: the smooth day must stay clean under batching (adaptive
	// caps), with the formation wait visible in the tail; the saturated
	// spike must show batching's goodput rescue — strictly fewer drops
	// at equal fleet size and no extra violation minutes.
	for _, row := range r.Days {
		base, ok := r.Unbatched(row)
		if !ok {
			t.Fatalf("no batch-1 reference for %s/%s", row.Day.Scenario, row.Day.Router)
		}
		if row.Day.Scenario == "baseline" {
			if row.Day.SLAViolationMin != 0 || row.Day.TotalDrops != 0 {
				t.Errorf("baseline/%s batch %d: viol %.0f drops %d, want clean",
					row.Day.Router, row.Batch, row.Day.SLAViolationMin, row.Day.TotalDrops)
			}
			if row.Batch > 1 && row.Day.MeanP95MS <= base.Day.MeanP95MS {
				t.Errorf("baseline/%s: batched p95 %.1f must show the formation wait over %.1f",
					row.Day.Router, row.Day.MeanP95MS, base.Day.MeanP95MS)
			}
			continue
		}
		if row.Batch > 1 {
			if row.Day.SLAViolationMin > base.Day.SLAViolationMin {
				t.Errorf("%s/%s: batched violations %.0f exceed unbatched %.0f",
					row.Day.Scenario, row.Day.Router, row.Day.SLAViolationMin, base.Day.SLAViolationMin)
			}
			if row.Day.TotalDrops >= base.Day.TotalDrops {
				t.Errorf("%s/%s: batching must cut drops at equal fleet size: %d vs %d",
					row.Day.Scenario, row.Day.Router, row.Day.TotalDrops, base.Day.TotalDrops)
			}
		}
	}

	out := r.Render()
	if !strings.Contains(out, "Batching 1") || !strings.Contains(out, "Batching 2") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

// TestFleetDayBatchedDeterminism extends the golden determinism guard
// to the dynamic-batching replay: batched replays must be
// byte-identical run to run and at any worker count. Deliberately not
// skipped in -short mode, like TestFleetDayDeterminism: this is the CI
// witness that batch formation, dispatch and the end-of-slice drain
// stay deterministic under concurrency.
func TestFleetDayBatchedDeterminism(t *testing.T) {
	table, err := FleetTable()
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetSpec(fleet.PowerOfTwo, "hercules", Seed)
	spec.Options.MaxBatch = 16
	spec.Options.BatchWaitS = batchWaitS
	one := replayJSON(t, spec, table, 1)
	for _, procs := range []int{8, 8} {
		if !bytes.Equal(replayJSON(t, spec, table, procs), one) {
			t.Errorf("GOMAXPROCS=%d batched replay diverged from GOMAXPROCS=1", procs)
		}
	}
}
