package fleet

import (
	"math"
	"sort"
)

// RegionSignal is what a geo policy sees of one region at an interval
// boundary: its name, the load its home users offer, an optimistic
// capacity estimate of its current fleet (full fleet at calibrated
// QPS, net of scenario kills and derates), and whether the region is
// blacked out this interval.
type RegionSignal struct {
	Name        string
	OfferedQPS  float64
	CapacityQPS float64
	Blackout    bool
}

// GeoSignal is the fleet-wide snapshot a geo policy routes on: one
// RegionSignal per region (in Spec.Regions order) and the symmetric
// inter-region RTT matrix in seconds (RTTS[i][j] is the extra latency
// a query from region i's users pays when served by region j).
type GeoSignal struct {
	Interval int
	Regions  []RegionSignal
	RTTS     [][]float64
}

// GeoPolicy decides, once per interval, what fraction of each region's
// home load to route to each other region. Route returns a square
// matrix out[src][dst]: the fraction of src's offered load sent to
// dst (diagonal entries are ignored; the engine clamps rows to [0, 1]
// total and keeps the remainder local). Policies are registered by
// name via RegisterGeoPolicy and selected by Spec.Geo.
type GeoPolicy interface {
	Name() string
	Route(sig GeoSignal) [][]float64
}

// GeoLocal is the local-only policy: every region serves (or drops)
// its own traffic. With it, a multi-region day replays each region
// byte-identically to that region running alone.
const GeoLocal = "local"

// GeoSpill is the overflow-spill policy: a region whose offered load
// exceeds spillTriggerFrac of its capacity — or that is blacked out
// entirely — sends the excess to remote regions with headroom,
// nearest (lowest RTT) first.
const GeoSpill = "spill"

// spillTriggerFrac is the utilization above which a region starts
// spilling, and spillHeadroomFrac the utilization up to which a
// region accepts spill. The gap keeps the exchange from oscillating:
// a region only exports load it demonstrably cannot serve, and only
// imports what leaves it safely below its own trigger.
const (
	spillTriggerFrac  = 0.9
	spillHeadroomFrac = 0.85
)

func init() {
	RegisterGeoPolicy(GeoLocal, func() GeoPolicy { return localGeo{} })
	RegisterGeoPolicy(GeoSpill, func() GeoPolicy { return spillGeo{} })
}

type localGeo struct{}

func (localGeo) Name() string { return GeoLocal }

func (localGeo) Route(sig GeoSignal) [][]float64 {
	out := make([][]float64, len(sig.Regions))
	for i := range out {
		out[i] = make([]float64, len(sig.Regions))
	}
	return out
}

type spillGeo struct{}

func (spillGeo) Name() string { return GeoSpill }

func (spillGeo) Route(sig GeoSignal) [][]float64 {
	n := len(sig.Regions)
	out := make([][]float64, n)
	head := make([]float64, n)
	for j, r := range sig.Regions {
		out[j] = make([]float64, n)
		if r.Blackout {
			continue // a dead region accepts nothing
		}
		head[j] = math.Max(0, r.CapacityQPS*spillHeadroomFrac-r.OfferedQPS)
	}
	order := make([]int, n)
	for src, r := range sig.Regions {
		if r.OfferedQPS <= 0 {
			continue
		}
		excess := r.OfferedQPS - r.CapacityQPS*spillTriggerFrac
		if r.Blackout {
			excess = r.OfferedQPS // evacuate everything
		}
		if excess <= 0 {
			continue
		}
		// Fill nearest survivors first (ties broken by region order, so
		// the routing is deterministic).
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return sig.RTTS[src][order[a]] < sig.RTTS[src][order[b]]
		})
		for _, dst := range order {
			if dst == src || head[dst] <= 0 || excess <= 0 {
				continue
			}
			take := math.Min(excess, head[dst])
			out[src][dst] = take / r.OfferedQPS
			head[dst] -= take
			excess -= take
		}
	}
	return out
}

// remoteStreamSeed derives the per-(interval, model) remote-origin
// decision stream, the geo analogue of cacheStreamSeed: which queries
// of a region's replayed slice are the spilled-in remote ones is a
// pure function of (seed, interval, model, query ID), independent of
// scheduling.
func remoteStreamSeed(seed int64, interval int, modelHash int64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^0x6E00B177^uint64(interval)) ^ uint64(modelHash))
}
