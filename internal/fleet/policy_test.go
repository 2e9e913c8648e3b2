package fleet

import (
	"math"
	"testing"
)

// TestDeadlineAdmissionEdgeCases pins the ShedFrac decision surface at
// its boundaries: no SLA means no shedding, a p99 exactly AT the SLA is
// inside it (zero overshoot, zero shed), and a zero-drop interval sheds
// purely on overshoot.
func TestDeadlineAdmissionEdgeCases(t *testing.T) {
	d := defaultPolicy[*deadlineAdmission](admissionTable, "deadline")
	if d.Gain != 0.5 || d.MaxShed != 0.5 {
		t.Fatalf("default tuning changed: gain=%g maxShed=%g", d.Gain, d.MaxShed)
	}
	if d.Name() != "deadline" {
		t.Fatalf("name %q", d.Name())
	}
	cases := []struct {
		name string
		sig  AdmissionSignal
		want float64
	}{
		{"no SLA admits everything even under collapse",
			AdmissionSignal{SLATargetMS: 0, PrevP99MS: 500, PrevDropFrac: 0.9}, 0},
		{"negative SLA treated as unset",
			AdmissionSignal{SLATargetMS: -20, PrevP99MS: 500, PrevDropFrac: 0.9}, 0},
		{"first interval (zero signal) sheds nothing",
			AdmissionSignal{SLATargetMS: 20}, 0},
		{"p99 under SLA, zero drops",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 12}, 0},
		{"p99 exactly at SLA is inside it",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 20}, 0},
		{"p99 exactly at SLA with drops sheds only the drop term",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 20, PrevDropFrac: 0.1}, 0.1},
		{"zero-drop interval sheds on overshoot alone",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 30}, 0.25},
		{"overshoot and drops add",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 30, PrevDropFrac: 0.1}, 0.35},
		{"p99 at 2x SLA reaches the cap exactly",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 40}, 0.5},
		{"cap binds past 2x SLA",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 400, PrevDropFrac: 0.8}, 0.5},
		{"p99 under SLA never offsets the drop term",
			AdmissionSignal{SLATargetMS: 20, PrevP99MS: 1, PrevDropFrac: 0.2}, 0.2},
	}
	for _, tc := range cases {
		if got := d.ShedFrac(tc.sig); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: ShedFrac = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// TestDeadlineAdmissionCustomTuning: Gain scales the overshoot term and
// MaxShed caps the sum, independent of the defaults.
func TestDeadlineAdmissionCustomTuning(t *testing.T) {
	d := &deadlineAdmission{Gain: 2, MaxShed: 0.9}
	sig := AdmissionSignal{SLATargetMS: 10, PrevP99MS: 12.5} // 25% overshoot
	if got := d.ShedFrac(sig); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("gain 2 at 25%% overshoot: %g, want 0.5", got)
	}
	sig.PrevDropFrac = 0.6
	if got := d.ShedFrac(sig); got != 0.9 {
		t.Errorf("custom cap: %g, want 0.9", got)
	}
}

// propScaler returns a scaler with dyadic tuning so the hysteresis
// comparisons in the test are exact in float64: want = (util-0.5)/0.5,
// and utilizations chosen as multiples of 1/16 give exact wants.
func propScaler() *proportionalScaler {
	return &proportionalScaler{TargetUtil: 0.5, Gain: 1, MaxBoostR: 0.5, Hysteresis: 0.25}
}

// TestProportionalScalerHysteresisBoundary pins the hold-window edge:
// a desired-headroom move of exactly Hysteresis holds the applied value
// (<=, not <), one step beyond it re-provisions.
func TestProportionalScalerHysteresisBoundary(t *testing.T) {
	p := propScaler()
	// want = 0.25 == Hysteresis exactly: hold, keep applied 0, no event.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.625}); early || extra != 0 {
		t.Fatalf("move == hysteresis must hold: early=%v extra=%g", early, extra)
	}
	if p.TriggerCount() != 0 {
		t.Fatalf("hold counted as a trigger")
	}
	// want = 0.375: |0.375-0| > 0.25 → re-provision with the new headroom.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.6875}); !early || extra != 0.375 {
		t.Fatalf("move past hysteresis must trigger: early=%v extra=%g", early, extra)
	}
	if p.TriggerCount() != 1 {
		t.Fatalf("trigger count %d, want 1", p.TriggerCount())
	}
	// Same utilization again: zero move, hold at the applied 0.375.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.6875}); early || extra != 0.375 {
		t.Fatalf("steady state must hold applied headroom: early=%v extra=%g", early, extra)
	}
	// Decay within the band: want falls to 0.25, |0.25-0.375| <= 0.25 →
	// the applied headroom persists (no flapping on small drifts).
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.625}); early || extra != 0.375 {
		t.Fatalf("in-band decay must hold: early=%v extra=%g", early, extra)
	}
	// Full decay: want 0, move 0.375 > band → re-provision back down.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.5}); !early || extra != 0 {
		t.Fatalf("out-of-band decay must trigger: early=%v extra=%g", early, extra)
	}
	if p.TriggerCount() != 2 {
		t.Fatalf("trigger count %d, want 2", p.TriggerCount())
	}
}

// TestProportionalScalerClampsAndDefaults: negative overshoot clamps to
// zero headroom, MaxBoostR caps runaway overshoot, a non-positive
// target falls back to 0.70, and breach verdicts do not move the
// headroom.
func TestProportionalScalerClampsAndDefaults(t *testing.T) {
	p := propScaler()
	// Far under target: want clamps to 0.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 0.1}); early || extra != 0 {
		t.Errorf("underload: early=%v extra=%g, want hold at 0", early, extra)
	}
	// want = 3, capped at MaxBoostR.
	if early, extra := p.IntervalEnd(ScalerSignal{Utilization: 2.0}); !early || extra != 0.5 {
		t.Errorf("overload: early=%v extra=%g, want trigger at cap 0.5", early, extra)
	}
	zero := &proportionalScaler{Gain: 1, MaxBoostR: 0.5, Hysteresis: 0.05}
	// At the fallback target: want 0.
	if early, extra := zero.IntervalEnd(ScalerSignal{Utilization: 0.70}); early || extra != 0 {
		t.Errorf("zero target must fall back to 0.70: early=%v extra=%g", early, extra)
	}
	d := defaultPolicy[*proportionalScaler](scalerTable, "prop")
	if d.TargetUtil != 0.70 || d.Gain != 1.0 || d.MaxBoostR != 0.5 || d.Hysteresis != 0.05 {
		t.Errorf("default tuning changed: %+v", d)
	}
	if d.Name() != "prop" {
		t.Errorf("name %q", d.Name())
	}
	// Breach-agnostic: at the target utilization, breached windows
	// must not move the headroom.
	if early, extra := d.IntervalEnd(ScalerSignal{Breached: []bool{true, true, true}, Utilization: 0.70}); early || extra != 0 {
		t.Errorf("breach verdicts leaked into proportional control: early=%v extra=%g", early, extra)
	}
}
