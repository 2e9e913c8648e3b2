package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
)

// goldenCalibrate is the pinned offline stage: the calibrated table,
// service times read off a SimService built over it, and every pair's
// batching-efficiency curve.
type goldenCalibrate struct {
	Entries  []profiler.Entry
	Service  []goldenServicePoint
	BatchEff []goldenBatchEff
}

type goldenServicePoint struct {
	Server, Model string
	Size          int
	Scale         float64
	ServiceS      float64
}

type goldenBatchEff struct {
	Server, Model string
	Eff           []float64
}

// The service grid spans the size ladder from a single item past
// ladderMaxSize (the overflow path), and the dedicated scale-0 bucket
// through heavy pooling.
var (
	goldenSizes  = []int{1, 16, 110, 700, 4096, 5000}
	goldenScales = []float64{0, 0.5, 1, 2.5}
)

// TestCalibrateGolden pins the offline stage the fleet tools run
// before any replay — CalibrateTable over RMC1–3 on the default fleet
// at seed 42, then the SimService grid and batching curves derived
// from that table — bit for bit. Regenerate with UPDATE_GOLDEN=1 go
// test ./internal/fleet -run TestCalibrateGolden only when the cost
// model or the calibration ladder changes deliberately.
func TestCalibrateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates 30 (model, server) pairs")
	}
	var models []*model.Model
	for _, name := range []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"} {
		m, err := model.ByName(name, model.Prod)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	table, err := CalibrateTable(models, hw.DefaultFleet().Types, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCalibrate{Entries: table.Entries()}
	svc := NewSimService(table)
	for _, e := range got.Entries {
		for _, size := range goldenSizes {
			for _, scale := range goldenScales {
				got.Service = append(got.Service, goldenServicePoint{
					e.Server, e.Model, size, scale, svc.ServiceS(e.Server, e.Model, size, scale)})
			}
		}
		got.BatchEff = append(got.BatchEff, goldenBatchEff{
			e.Server, e.Model, svc.PairBatchEff(e.Server, e.Model, 16)})
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	const path = "testdata/golden_calibrate.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("offline stage diverged from the committed golden (UPDATE_GOLDEN=1 to regenerate after a deliberate change)")
	}
}

// TestCalibrateSpecRegions: a regional spec whose regions name
// different fleets calibrates the union of their server types once, at
// the spec's seed, each pair exactly as CalibrateTable measures it over
// the region's own fleet; and NewMultiEngine without WithTable hands
// that one table to every region instead of calibrating per region.
func TestCalibrateSpecRegions(t *testing.T) {
	spec := DefaultSpec()
	spec.Models = []string{"DLRM-RMC1"}
	spec.Regions = []RegionSpec{{Name: "east", Fleet: "small"}, {Name: "west", Fleet: "cpu"}}
	table, err := CalibrateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName("DLRM-RMC1", model.Prod)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, r := range spec.Regions {
		fl, err := hw.NamedFleet(r.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		own, err := CalibrateTable([]*model.Model{m}, fl.Types, spec.Options.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range own.Entries() {
			got, ok := table.Get(want.Server, want.Model)
			if !ok || got != want {
				t.Errorf("region %s pair %s/%s: CalibrateSpec %+v, own fleet %+v", r.Name, want.Server, want.Model, got, want)
			}
			covered[want.Server] = true
		}
	}
	if got := len(table.Entries()); got != len(covered) {
		t.Errorf("CalibrateSpec returned %d entries, want one per type of the regions' fleets (%d)", got, len(covered))
	}

	me, err := NewMultiEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range me.Engines {
		if eng.Table != me.Engines[0].Table {
			t.Errorf("region %s calibrated its own table; want the one shared table", me.Spec.Regions[i].Name)
		}
	}
	if got, want := me.Engines[0].Table.Entries(), table.Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("NewMultiEngine table %+v, want CalibrateSpec's %+v", got, want)
	}
}
