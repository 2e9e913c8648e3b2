// Test files are exempt from the Observer contract: the loader feeds
// analyzers only non-test GoFiles. This observer retains the snapshot
// and carries no want comment, so any finding here fails the fixture.
package obscontract

import "hercules/internal/fleet"

type recorder struct{ last fleet.IntervalStats }

// ObserveInterval implements fleet.Observer.
func (r *recorder) ObserveInterval(ist fleet.IntervalStats) {
	r.last = ist
}
