package fleet

import "math"

// MergeDays combines per-engine DayResults into one aggregate — the
// global view of a multi-region replay. Each field merges by its own
// algebra, audited for cross-engine correctness before the regional
// merge was built on it:
//
//   - counts, energies, carbon grams and violation minutes sum;
//   - MaxP95/MaxP99 take the max (a max of maxes is the global max);
//   - MeanP95/MeanP99 merge as query-weighted means — a plain mean of
//     per-region means would let an idle region's quiet tail dilute a
//     loaded region's, and would not be associative under uneven
//     splits;
//   - DropFrac, CacheHitRate and CarbonPerQueryG are recomputed from
//     the merged totals (never averaged: ratios of different
//     denominators);
//   - Boosted survives as BoostedIntervals (a per-interval bool has no
//     cross-engine sum; a count does);
//   - cache warmth stays per-region interval state (IntervalStats
//     .CacheWarmth): regions cache independently, so a merged scalar
//     would be fiction — the global result only aggregates hit
//     totals.
//
// String labels (router, policies, scenario) come from the first
// part; Steps are not concatenated (interval indexes would collide —
// read per-region Steps from DayResult.Regions instead). The merge is
// associative up to float rounding: MergeDays(a, b, c) equals
// MergeDays(MergeDays(a, b), c) within tolerance, which the merge
// test pins.
func MergeDays(parts ...DayResult) DayResult {
	var out DayResult
	if len(parts) == 0 {
		return out
	}
	out = parts[0]
	out.Steps = nil
	out.Regions = nil
	out.Region = "" // the merge spans regions; per-region labels live in Regions
	var wMeanP95, wMeanP99 float64
	totalQ := 0
	for i, p := range parts {
		w := float64(p.TotalQueries)
		wMeanP95 += p.MeanP95MS * w
		wMeanP99 += p.MeanP99MS * w
		totalQ += p.TotalQueries
		if i == 0 {
			continue
		}
		out.TotalQueries += p.TotalQueries
		out.TotalDrops += p.TotalDrops
		out.TotalShed += p.TotalShed
		out.TotalCacheHits += p.TotalCacheHits
		out.SLAViolationMin += p.SLAViolationMin
		out.EnergyKJ += p.EnergyKJ
		out.ProvisionedEnergyKJ += p.ProvisionedEnergyKJ
		out.TotalCarbonG += p.TotalCarbonG
		out.Reprovisions += p.Reprovisions
		out.EarlyReprovisions += p.EarlyReprovisions
		out.AutoscaleEvents += p.AutoscaleEvents
		out.BoostedIntervals += p.BoostedIntervals
		out.SpillInServed += p.SpillInServed
		out.SpillInDropped += p.SpillInDropped
		out.MaxP95MS = math.Max(out.MaxP95MS, p.MaxP95MS)
		out.MaxP99MS = math.Max(out.MaxP99MS, p.MaxP99MS)
	}
	if totalQ > 0 {
		out.MeanP95MS = wMeanP95 / float64(totalQ)
		out.MeanP99MS = wMeanP99 / float64(totalQ)
	} else {
		// No traffic anywhere: fall back to an unweighted mean so an
		// all-idle merge still reports the parts' (zero) tails.
		out.MeanP95MS, out.MeanP99MS = 0, 0
		for _, p := range parts {
			out.MeanP95MS += p.MeanP95MS / float64(len(parts))
			out.MeanP99MS += p.MeanP99MS / float64(len(parts))
		}
	}
	out.setRatios()
	return out
}
