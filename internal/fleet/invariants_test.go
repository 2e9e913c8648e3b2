package fleet

import (
	"testing"

	"hercules/internal/power"
)

// dayTotals is the additive part of a DayResult: every field the
// aggregator and MergeDays sum.
type dayTotals struct {
	Queries, Drops, Shed, CacheHits             int
	SpillInServed, SpillInDropped               int
	Reprovisions, EarlyReprovisions, Boosted    int
	EnergyKJ, ProvisionedEnergyKJ, CarbonG, Vio float64
}

func totalsOf(res DayResult) dayTotals {
	return dayTotals{
		res.TotalQueries, res.TotalDrops, res.TotalShed, res.TotalCacheHits,
		res.SpillInServed, res.SpillInDropped,
		res.Reprovisions, res.EarlyReprovisions, res.BoostedIntervals,
		res.EnergyKJ, res.ProvisionedEnergyKJ, res.TotalCarbonG, res.SLAViolationMin,
	}
}

// add sums in the order the aggregator and MergeDays do, so equal
// inputs give bit-equal floats.
func (a *dayTotals) add(b dayTotals) {
	a.Queries += b.Queries
	a.Drops += b.Drops
	a.Shed += b.Shed
	a.CacheHits += b.CacheHits
	a.SpillInServed += b.SpillInServed
	a.SpillInDropped += b.SpillInDropped
	a.Reprovisions += b.Reprovisions
	a.EarlyReprovisions += b.EarlyReprovisions
	a.Boosted += b.Boosted
	a.EnergyKJ += b.EnergyKJ
	a.ProvisionedEnergyKJ += b.ProvisionedEnergyKJ
	a.CarbonG += b.CarbonG
	a.Vio += b.Vio
}

// intervalTotals is one interval's contribution to its day's totals.
func intervalTotals(ist IntervalStats) dayTotals {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return dayTotals{
		ist.Queries, ist.Drops, ist.Shed, ist.CacheHits,
		ist.SpillInServed, ist.SpillInDropped,
		b(ist.Reprovisioned), b(ist.EarlyReprovision), b(ist.Boosted),
		ist.EnergyKJ, ist.ProvisionedEnergyKJ, ist.CarbonG, ist.ViolationMin,
	}
}

// checkDayInvariants asserts the accounting identities of a replayed
// day, for every interval and, on a multi-region day, for every region:
// drops and cache hits are disjoint parts of the queries, spill-in
// queries are part of the queries and spill-in drops part of the drops,
// carbon is the interval's energy priced at its grid intensity, an
// interval with live servers bills energy, the day's totals are the
// interval sums, and a multi-region day's totals are the sums of its
// regions. The energy floor holds for hw server types, whose idle draw
// is positive.
func checkDayInvariants(t *testing.T, res DayResult) {
	t.Helper()
	if len(res.Regions) > 0 {
		var sum dayTotals
		for _, r := range res.Regions {
			checkDayInvariants(t, r)
			sum.add(totalsOf(r))
		}
		if got := totalsOf(res); got != sum {
			t.Errorf("merged totals %+v, want the regions' sum %+v", got, sum)
		}
		return
	}
	var sum dayTotals
	for _, ist := range res.Steps {
		if ist.Queries < ist.Drops+ist.CacheHits {
			t.Errorf("%s interval %d: %d queries < %d drops + %d cache hits",
				res.Region, ist.Index, ist.Queries, ist.Drops, ist.CacheHits)
		}
		if ist.SpillInDropped > ist.Drops || ist.SpillInServed+ist.SpillInDropped > ist.Queries {
			t.Errorf("%s interval %d: spill-in %d served + %d dropped outside %d queries, %d drops",
				res.Region, ist.Index, ist.SpillInServed, ist.SpillInDropped, ist.Queries, ist.Drops)
		}
		if want := power.CarbonG(ist.EnergyKJ, ist.GridGPerKWh); ist.CarbonG != want {
			t.Errorf("%s interval %d: carbon %g g, want %g g for %g kJ at %g g/kWh",
				res.Region, ist.Index, ist.CarbonG, want, ist.EnergyKJ, ist.GridGPerKWh)
		}
		if ist.ActiveServers > ist.DeadServers && ist.EnergyKJ <= 0 {
			t.Errorf("%s interval %d: %d live servers billed %g kJ",
				res.Region, ist.Index, ist.ActiveServers-ist.DeadServers, ist.EnergyKJ)
		}
		sum.add(intervalTotals(ist))
	}
	if got := totalsOf(res); got != sum {
		t.Errorf("%s day totals %+v, want the interval sums %+v", res.Region, got, sum)
	}
}
