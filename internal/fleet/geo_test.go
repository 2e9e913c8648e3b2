package fleet

import (
	"math"
	"strings"
	"testing"

	"hercules/internal/stats"
)

// threeRegions is the spill-policy unit fixture: a hot source, a near
// small survivor and a far large one.
func threeRegions(hotBlackout bool) GeoSignal {
	return GeoSignal{
		Regions: []RegionSignal{
			{Name: "hot", OfferedQPS: 1000, CapacityQPS: 800, Blackout: hotBlackout},
			{Name: "near", OfferedQPS: 100, CapacityQPS: 400},
			{Name: "far", OfferedQPS: 100, CapacityQPS: 4000},
		},
		RTTS: [][]float64{
			{0, 0.010, 0.080},
			{0.010, 0, 0.080},
			{0.080, 0.080, 0},
		},
	}
}

func TestGeoRegistry(t *testing.T) {
	// Both built-ins resolve and report their table names.
	for _, name := range []string{GeoLocal, GeoSpill} {
		g, err := geoTable.build(name)
		if err != nil {
			t.Fatalf("built-in geo policy %q not registered: %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("geo policy %q reports name %q", name, g.Name())
		}
	}
	names := GeoPolicyNames()
	if len(names) < 2 {
		t.Errorf("GeoPolicyNames() = %v, want at least local and spill", names)
	}
	if _, err := geoTable.build("no-such-geo"); err == nil ||
		!strings.Contains(err.Error(), GeoLocal) || !strings.Contains(err.Error(), GeoSpill) {
		t.Errorf("unknown geo policy error must list registrations, got %v", err)
	}
}

func TestGeoLocalRoutesNothing(t *testing.T) {
	out := localGeo{}.Route(threeRegions(false))
	for src, row := range out {
		for dst, f := range row {
			if f != 0 {
				t.Errorf("local policy routed %g from %d to %d", f, src, dst)
			}
		}
	}
}

// TestGeoSpillOverflow: an overloaded (not blacked-out) region spills
// only its excess over the trigger, to the nearest survivor with
// headroom first.
func TestGeoSpillOverflow(t *testing.T) {
	out := spillGeo{}.Route(threeRegions(false))
	// hot: offered 1000, trigger 0.9*800 = 720 → excess 280.
	// near headroom: 0.85*400-100 = 240 → takes 240 (nearest).
	// far takes the remaining 40.
	if got, want := out[0][1]*1000, 240.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("near received %g QPS, want %g", got, want)
	}
	if got, want := out[0][2]*1000, 40.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("far received %g QPS, want %g", got, want)
	}
	// The comfortable regions spill nothing.
	for src := 1; src < 3; src++ {
		for dst := range out[src] {
			if out[src][dst] != 0 {
				t.Errorf("region %d spilled despite headroom", src)
			}
		}
	}
}

// TestGeoSpillBlackout: a blacked-out region evacuates everything and
// accepts nothing.
func TestGeoSpillBlackout(t *testing.T) {
	out := spillGeo{}.Route(threeRegions(true))
	total := out[0][1] + out[0][2]
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("blacked-out region kept %g of its load, want full evacuation", 1-total)
	}
	// near takes its headroom (0.85*400-100 = 240 QPS = 0.24), far the rest.
	if math.Abs(out[0][1]-0.24) > 1e-9 {
		t.Errorf("near fraction %g, want 0.24 (headroom-capped, nearest-first)", out[0][1])
	}
	// Nothing routes to the dead region, even from an overloaded peer.
	sig := threeRegions(true)
	sig.Regions[1].OfferedQPS = 500 // near now over its own 360 trigger
	out = spillGeo{}.Route(sig)
	if out[1][0] != 0 {
		t.Error("spill routed load into a blacked-out region")
	}
	if out[1][2] == 0 {
		t.Error("overloaded survivor found no live destination")
	}
}

// TestRemoteStreamSeedIndependence: the remote-origin membership
// stream must differ from the cache stream and across intervals and
// models, so the two Bernoulli draws cannot correlate.
func TestRemoteStreamSeedIndependence(t *testing.T) {
	mh := stats.HashString("DLRM-RMC1")
	if remoteStreamSeed(1, 3, mh) == cacheStreamSeed(1, 3, mh) {
		t.Error("remote and cache streams collide for the same (seed, interval, model)")
	}
	if remoteStreamSeed(1, 3, mh) == remoteStreamSeed(1, 4, mh) {
		t.Error("remote stream does not vary with the interval")
	}
	if remoteStreamSeed(1, 3, mh) == remoteStreamSeed(2, 3, mh) {
		t.Error("remote stream does not vary with the seed")
	}
}
