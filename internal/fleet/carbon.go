package fleet

import (
	"math"

	"hercules/internal/grid"
)

// carbonScaler is the carbon-aware headroom policy (table name
// "carbon"): it shapes the over-provision rate to the grid, holding
// extra headroom through low-carbon hours (capacity is cheap in gCO2
// then, and the slack absorbs the deferred work a carbon admission
// policy pushes there) and running lean through high-carbon hours so
// the fleet sheds idle watts exactly when each watt is dirtiest. The
// two regimes are judged against the day's mean intensity, with a dead
// band between them where the base headroom applies untouched.
//
// Latency remains the backstop: a breach streak (same Patience idea as
// the breach scaler) forces an early re-provision at full BoostR no
// matter how dirty the hour — the policy trades carbon for slack, not
// for SLA violations. Without a grid timeline the signal's intensities
// are zero and the scaler degrades to that breach backstop alone.
type carbonScaler struct {
	// CleanFrac is the fraction of the day's mean intensity at or
	// below which an hour counts as clean (default 0.85): clean hours
	// run with BoostR extra headroom.
	CleanFrac float64
	// DirtyFrac is the fraction of the mean at or above which an hour
	// counts as dirty (default 1.10): dirty hours run with LeanR less
	// headroom (clamped at zero total by the engine).
	DirtyFrac float64
	// BoostR is the extra over-provision headroom in clean hours
	// (default 0.25, matching the breach scaler's boost).
	BoostR float64
	// LeanR is the headroom given back in dirty hours (default 0.10).
	LeanR float64
	// Patience is the consecutive-breach streak that triggers the
	// latency backstop (default 2).
	Patience int
	// HoldIntervals is how long a backstop boost stays in force
	// (default 4, counting the triggered re-provision).
	HoldIntervals int

	applied float64
	streak  int
	pending bool
	holding int
	events  int
}

// Name implements Scaler.
func (c *carbonScaler) Name() string { return "carbon" }

// TriggerCount implements Scaler.
func (c *carbonScaler) TriggerCount() int { return c.events }

// IntervalEnd implements Scaler: extend the latency backstop's breach
// streak over the interval's windows, then pick the next interval's
// headroom from its forecast intensity regime, unless the backstop is
// in force.
func (c *carbonScaler) IntervalEnd(sig ScalerSignal) (early bool, extraR float64) {
	for _, breached := range sig.Breached {
		if !breached {
			c.streak = 0
			continue
		}
		c.streak++
		if c.streak >= max(c.Patience, 1) && !c.pending {
			c.pending = true
			c.events++
		}
	}
	if c.pending {
		c.pending = false
		c.streak = 0
		c.holding = max(c.HoldIntervals-1, 0)
		c.applied = c.BoostR
		return true, c.BoostR
	}
	if c.holding > 0 {
		c.holding--
		return false, c.applied
	}
	want := 0.0
	if sig.GridMeanGPerKWh > 0 {
		switch rel := sig.NextGridGPerKWh / sig.GridMeanGPerKWh; {
		case rel <= c.CleanFrac:
			want = c.BoostR
		case rel >= c.DirtyFrac:
			want = -c.LeanR
		}
	}
	if want == c.applied {
		return false, c.applied
	}
	c.applied = want
	c.events++
	return true, want
}

// carbonAdmission is the carbon-aware deferral policy (table name
// "carbon"): in hours dirtier than the day's mean it defers a ramp of
// the *deferrable* query class — embedding-refresh and precompute
// style work that tolerates hours of delay — never exceeding the
// stream's deferrable share, so the realtime class is never touched.
// The deferred work's later replay is not modeled; what the metric
// sees is the deferrable load vanishing from the dirtiest hours, which
// is precisely the carbon-aware scheduling lever of the HPCA line of
// work. On top of the deferral ramp it keeps deadlineAdmission's
// overload term (scaled to the deferrable class) so a melting fleet
// still sheds. Without a grid the signal's intensities are zero and
// the policy admits everything but that overload term.
type carbonAdmission struct {
	// RampFrac is the relative overshoot of the day's mean intensity
	// at which the entire deferrable class is deferred (default 0.30:
	// at mean×1.30 every deferrable query waits for a cleaner hour;
	// halfway up the ramp, half do).
	RampFrac float64
	// Gain converts relative p99 overshoot into extra shedding inside
	// the deferrable class (default 0.5, as deadlineAdmission).
	Gain float64
}

// Name implements Admission.
func (c *carbonAdmission) Name() string { return "carbon" }

// ShedFrac implements Admission.
func (c *carbonAdmission) ShedFrac(sig AdmissionSignal) float64 {
	defFrac := sig.DeferrableFrac
	if defFrac <= 0 {
		defFrac = grid.DefaultDeferrableFrac
	}
	var frac float64
	if sig.GridMeanGPerKWh > 0 && sig.GridGPerKWh > sig.GridMeanGPerKWh {
		over := sig.GridGPerKWh/sig.GridMeanGPerKWh - 1
		ramp := c.RampFrac
		if ramp <= 0 {
			ramp = 0.30
		}
		frac = defFrac * math.Min(over/ramp, 1)
	}
	if sig.SLATargetMS > 0 && sig.PrevP99MS > sig.SLATargetMS {
		over := (sig.PrevP99MS - sig.SLATargetMS) / sig.SLATargetMS
		frac += defFrac * math.Min(c.Gain*over, 1)
	}
	return math.Min(frac, defFrac)
}
