// Package fleet is the fixture stub of hercules/internal/fleet: just
// enough of the observer surface for the obscontract fixture to
// type-check against the real import path.
package fleet

// IntervalStats mirrors the real snapshot's shape: scalars plus a
// reference-carrying per-model map.
type IntervalStats struct {
	Queries     int
	P99MS       float64
	CacheWarmth map[string]float64
}

// Observer receives the per-interval stream synchronously.
type Observer interface{ ObserveInterval(ist IntervalStats) }

// ObserverFunc adapts a function to Observer.
type ObserverFunc func(ist IntervalStats)

// ObserveInterval implements Observer.
func (f ObserverFunc) ObserveInterval(ist IntervalStats) { f(ist) }
