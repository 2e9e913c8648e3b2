package fleet

import "math"

// Admission is the SLA-aware load-shedding policy consulted at the
// fleet's front door: once per trace interval and workload, it decides
// what fraction of the model's offered arrivals to reject at admission
// — before any router sees them — from what the previous interval
// observed. Shed queries are counted in IntervalStats.Shed (the same
// accounting as scenario shedding drills), never as queue drops or SLA
// breaches: the whole point of shedding is that a rejected query is
// cheaper than a query served past its deadline.
//
// Spec.Admission names one of admissionTable's entries; a nil
// Engine.Admission admits everything, which is the default and replays
// bit-identically to the pre-admission engine.
type Admission interface {
	Name() string
	// ShedFrac returns the fraction in [0, 1) of the model's arrivals
	// to reject at admission this interval. The engine clamps returns
	// to [0, 0.95] — an admission policy may starve a workload, but
	// never silence it completely.
	ShedFrac(sig AdmissionSignal) float64
}

// AdmissionSignal is what an admission policy may condition on: the
// interval's offered load plus the previous interval's observed tail
// and drop rate for the model (zero values for the first interval —
// admission control has nothing to react to yet).
type AdmissionSignal struct {
	Model       string
	SLATargetMS float64
	OfferedQPS  float64
	// PrevP99MS is the model's p99 over the previous interval's
	// replayed slice; PrevDropFrac its queue-drop fraction.
	PrevP99MS    float64
	PrevDropFrac float64
	// GridGPerKWh is the interval's grid carbon intensity and
	// GridMeanGPerKWh the day's mean; DeferrableFrac is the share of
	// the stream in the deferrable query class — the ceiling a
	// carbon-aware policy may defer to cleaner hours (the realtime
	// remainder is never its to shed). All zero when no grid is
	// configured.
	GridGPerKWh     float64
	GridMeanGPerKWh float64
	DeferrableFrac  float64
}

// deadlineAdmission is the deadline-aware shedding policy (table name
// "deadline"): when the previous interval's p99 overshot the
// model's SLA — meaning the marginal query was already being served
// past its deadline — it sheds a fraction proportional to the relative
// overshoot, plus whatever fraction the bounded queues were already
// dropping (those queries queued, aged, and died anyway; rejecting
// them at the door frees their service time for queries that can still
// make the deadline). A fleet inside its SLA sheds nothing.
type deadlineAdmission struct {
	// Gain converts relative p99 overshoot into shed fraction
	// (default 0.5: a p99 at 2× the SLA sheds half the stream, before
	// the drop-fraction term).
	Gain float64
	// MaxShed caps the shed fraction (default 0.5).
	MaxShed float64
}

// Name implements Admission.
func (d *deadlineAdmission) Name() string { return "deadline" }

// ShedFrac implements Admission.
func (d *deadlineAdmission) ShedFrac(sig AdmissionSignal) float64 {
	if sig.SLATargetMS <= 0 {
		return 0
	}
	over := (sig.PrevP99MS - sig.SLATargetMS) / sig.SLATargetMS
	if over < 0 {
		over = 0
	}
	frac := d.Gain*over + sig.PrevDropFrac
	return math.Min(math.Max(frac, 0), d.MaxShed)
}
