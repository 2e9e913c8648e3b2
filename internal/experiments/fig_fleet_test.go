package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/profiler"
)

func TestFig13Online(t *testing.T) {
	if testing.Short() {
		t.Skip("replays eight full days of traffic")
	}
	t.Parallel()
	r, err := Fig13Online(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(fleet.AllRouters)*2 {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(fleet.AllRouters)*2)
	}
	byKey := map[string]fleet.DayResult{}
	for _, row := range r.Rows {
		byKey[row.Policy+"/"+row.Router] = row
		if row.TotalQueries <= 0 {
			t.Fatalf("%s/%s replayed nothing", row.Policy, row.Router)
		}
		if row.DropFrac < 0 || row.DropFrac > 1 {
			t.Fatalf("%s/%s drop fraction %v", row.Policy, row.Router, row.DropFrac)
		}
		if row.EnergyKJ <= 0 {
			t.Fatalf("%s/%s no energy recorded", row.Policy, row.Router)
		}
		if len(row.Steps) < 24 {
			t.Fatalf("%s/%s replayed %d intervals, want a full day (>=24)",
				row.Policy, row.Router, len(row.Steps))
		}
	}
	// The load-oblivious baseline must lose to every state-aware router
	// on SLA-violation minutes under both provisioning policies — the
	// imbalance the aggregate-capacity model cannot see.
	for _, pol := range []string{"greedy", "hercules"} {
		rr := byKey[pol+"/rr"]
		for _, router := range []string{"least", "p2c", "hetero"} {
			if byKey[pol+"/"+router].SLAViolationMin >= rr.SLAViolationMin {
				t.Errorf("%s: %s (%.0f viol min) must beat rr (%.0f)",
					pol, router, byKey[pol+"/"+router].SLAViolationMin, rr.SLAViolationMin)
			}
		}
	}
	// Hercules provisioning must not cost more energy than greedy for
	// the same router (it activates the efficient subset of the fleet).
	for _, router := range []string{"least", "p2c", "hetero"} {
		g, h := byKey["greedy/"+router], byKey["hercules/"+router]
		if h.EnergyKJ > g.EnergyKJ*1.02 {
			t.Errorf("%s: hercules energy %.0f kJ exceeds greedy %.0f kJ",
				router, h.EnergyKJ, g.EnergyKJ)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Fig. 13-online") || !strings.Contains(out, "best:") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFleetTableCalibrates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs capacity searches")
	}
	t.Parallel()
	table, err := FleetTable()
	if err != nil {
		t.Fatal(err)
	}
	// The replay runs on DefaultSpec's fleet: plain CPU, NMP and GPU
	// server types at a 76-server scale (hw.SmallFleet).
	for _, srv := range hw.SmallFleet().Types {
		for _, m := range FleetModels {
			e, ok := table.Get(srv.Type, m)
			if !ok || e.QPS <= 0 {
				t.Errorf("pair %s/%s missing or zero-capacity: %+v", srv.Type, m, e)
			}
			if e.PowerW <= 0 {
				t.Errorf("pair %s/%s has no power budget", srv.Type, m)
			}
		}
	}
	// The NMP type must beat plain DDR4 for the memory-bound RMC1
	// (the Fig. 15 ordering the router's weights rely on).
	if table.MustGet("T3", "DLRM-RMC1").QPS <= table.MustGet("T2", "DLRM-RMC1").QPS {
		t.Error("NMP (T3) must outrun DDR4 (T2) on DLRM-RMC1")
	}
}

// atProcs runs f with GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// replayJSON replays spec's experiment day at the given GOMAXPROCS and
// returns the DayResult's JSON.
func replayJSON(t *testing.T, spec fleet.Spec, table *profiler.Table, procs int) []byte {
	t.Helper()
	var day fleet.DayResult
	var err error
	atProcs(procs, func() {
		var eng *fleet.Engine
		if eng, err = fleet.NewEngine(spec, fleet.WithTable(table)); err == nil {
			day, err = eng.RunDay(FleetWorkloads(table, Seed))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if day.TotalQueries == 0 {
		t.Fatal("replay produced no traffic")
	}
	b, err := json.Marshal(day)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetDayDeterminism is the golden determinism guard for the
// concurrent replay over the real calibrated service grids: the
// BenchmarkFleetDay configuration must produce byte-identical summary
// reports run to run and at any worker count (each model's pool
// replays as one task on its own seeded streams, so scheduling must
// never leak into results). Deliberately not skipped in -short mode:
// this is the CI witness that the hot-path optimizations keep seeded
// replays reproducible.
func TestFleetDayDeterminism(t *testing.T) {
	table, err := FleetTable()
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetSpec(fleet.PowerOfTwo, "hercules", Seed)
	one := replayJSON(t, spec, table, 1)
	for _, procs := range []int{8, 8} {
		if !bytes.Equal(replayJSON(t, spec, table, procs), one) {
			t.Errorf("GOMAXPROCS=%d replay diverged from GOMAXPROCS=1", procs)
		}
	}
}
