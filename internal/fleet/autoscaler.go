package fleet

import "math"

// Scaler is the online autoscaling policy the engine consults during a
// replay. At each trace-interval boundary the engine hands it one
// ScalerSignal and asks whether to re-provision early and with how much
// extra over-provision headroom. Spec.Scaler names one of scalerTable's
// entries; a nil Engine.Scaler disables early re-provisioning entirely
// (scheduled intervals only).
type Scaler interface {
	Name() string
	// IntervalEnd advances the scaler one trace interval on that
	// interval's signal and reports whether the engine must
	// re-provision early at the next boundary, plus the extra
	// over-provision headroom currently in force.
	IntervalEnd(sig ScalerSignal) (early bool, extraR float64)
	// TriggerCount is the number of scaling events so far this run.
	TriggerCount() int
}

// ScalerSignal is everything a Scaler conditions on, built once per
// interval after the tail merge and the energy sweep.
type ScalerSignal struct {
	// Breached holds each observation window's SLA verdict, in
	// virtual-time order: the window's p95 exceeded the model's SLA
	// target, or the window dropped a query. It is empty for an
	// interval with no offered load. The slice is the engine's scratch
	// buffer, reused next interval: a scaler must not keep it.
	Breached []bool
	// Utilization is the fleet's mean service-channel utilization over
	// the last interval that ran instances (an interval without them
	// repeats the previous value).
	Utilization float64
	// NextGridGPerKWh is the next interval's carbon intensity, the
	// day-ahead forecast a grid operator publishes (it wraps at the
	// day boundary), and GridMeanGPerKWh the day's mean. Both are zero
	// without a grid.
	NextGridGPerKWh float64
	GridMeanGPerKWh float64
}

// breachScaler is the breach-driven scaler (table name "breach"): it
// watches windowed tail latency during the replay and triggers early
// re-provisioning when the fleet falls behind. Hercules re-provisions
// on a coarse schedule (tens of minutes) to amortize workload setup;
// the autoscaler closes the gap the paper leaves open: load that
// outruns the over-provision headroom *between* scheduled intervals.
// When Patience consecutive observation windows breach the SLA, the
// engine re-provisions at the next interval boundary with the
// over-provision rate boosted by BoostR; the boost stays in force for
// exactly HoldIntervals intervals (the triggered re-provision plus
// HoldIntervals−1 quiet ones), then decays.
type breachScaler struct {
	// Patience is the number of consecutive breached windows required
	// to trigger (default 2 — one bad window can be sampling noise).
	Patience int
	// BoostR is the extra over-provision headroom applied while
	// boosted (default 0.25).
	BoostR float64
	// HoldIntervals is how many intervals a boost lasts, counting the
	// triggered re-provision itself (default 4).
	HoldIntervals int

	streak    int
	boostLeft int
	pending   bool
	// Events counts trigger firings over the run.
	Events int
}

// Name implements Scaler.
func (a *breachScaler) Name() string { return "breach" }

// TriggerCount implements Scaler.
func (a *breachScaler) TriggerCount() int { return a.Events }

// IntervalEnd implements Scaler: extend the breach streak over the
// interval's windows, then report whether the engine must re-provision
// early at the next boundary, plus the extra over-provision headroom
// currently in force.
func (a *breachScaler) IntervalEnd(sig ScalerSignal) (early bool, extraR float64) {
	for _, breached := range sig.Breached {
		if !breached {
			a.streak = 0
			continue
		}
		a.streak++
		if a.streak >= a.Patience && !a.pending {
			a.pending = true
			a.Events++
		}
	}
	if a.pending {
		a.pending = false
		a.streak = 0
		// The triggered re-provision is the first of the HoldIntervals
		// boosted intervals; boostLeft counts the remaining ones.
		a.boostLeft = max(a.HoldIntervals-1, 0)
		return true, a.BoostR
	}
	if a.boostLeft > 0 {
		a.boostLeft--
		return false, a.BoostR
	}
	return false, 0
}

// proportionalScaler is the target-utilization scaler (table name
// "prop"): instead of waiting for tails to breach, it holds the
// fleet's mean service-channel utilization near TargetUtil by scaling
// the over-provision headroom proportionally to the overshoot —
// classic proportional control, re-provisioning early whenever the
// desired headroom moves by more than the hysteresis band. It reacts
// one interval before a breach-driven scaler would (utilization climbs
// before tails collapse) at the cost of chasing load the fleet could
// have absorbed.
type proportionalScaler struct {
	// TargetUtil is the mean busy fraction the scaler steers toward
	// (default 0.70 — M/G/c tails stay flat below it and take off
	// beyond it).
	TargetUtil float64
	// Gain converts relative overshoot into extra over-provision
	// headroom: extraR = Gain × (util − target)/target (default 1.0).
	Gain float64
	// MaxBoostR caps the extra headroom (default 0.5).
	MaxBoostR float64
	// Hysteresis is the smallest change in desired headroom that
	// forces an early re-provision (default 0.05); smaller drifts keep
	// the currently applied headroom.
	Hysteresis float64

	applied float64
	events  int
}

// Name implements Scaler.
func (p *proportionalScaler) Name() string { return "prop" }

// TriggerCount implements Scaler.
func (p *proportionalScaler) TriggerCount() int { return p.events }

// IntervalEnd implements Scaler: proportional control on the signal's
// mean utilization.
func (p *proportionalScaler) IntervalEnd(sig ScalerSignal) (early bool, extraR float64) {
	target := p.TargetUtil
	if target <= 0 {
		target = 0.70
	}
	want := p.Gain * (sig.Utilization - target) / target
	want = math.Min(math.Max(want, 0), p.MaxBoostR)
	if math.Abs(want-p.applied) <= p.Hysteresis {
		return false, p.applied
	}
	p.applied = want
	p.events++
	return true, want
}
