package experiments

import (
	"strings"
	"testing"

	"hercules/internal/fleet"
)

func TestFigScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("replays many full days of traffic")
	}
	t.Parallel()
	r, err := FigScenarios(Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := len(ScenarioNames) * (len(ScenarioRouters)*2 + len(ScenarioPolicyCells))
	if len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
	// The table-selected policies must appear as sweep rows, labeled
	// by the names the engine resolved them under.
	sawProp, sawDeadline := false, false
	for _, row := range r.Rows {
		if row.Day.Scaler == "prop" {
			sawProp = true
		}
		if row.Day.Admission == "deadline" {
			sawDeadline = true
		}
	}
	if !sawProp || !sawDeadline {
		t.Errorf("sweep must include the prop-scaler and deadline-admission rows (prop=%v deadline=%v)",
			sawProp, sawDeadline)
	}
	type key struct {
		scenario, router string
		autoscaled       bool
	}
	byKey := map[key]fleet.DayResult{}
	for _, row := range r.Rows {
		d := row.Day
		if d.Admission == "" && (d.Scaler == "" || d.Scaler == "breach") {
			// Only default-policy rows index the router × autoscaler
			// grid; the prop/deadline cells would collide on the key.
			byKey[key{d.Scenario, d.Router, row.Autoscaled}] = d
		}
		if d.TotalQueries <= 0 {
			t.Fatalf("%s/%s replayed nothing", d.Scenario, d.Router)
		}
		if len(d.Steps) < 24 {
			t.Fatalf("%s/%s replayed %d intervals, want a full day", d.Scenario, d.Router, len(d.Steps))
		}
	}
	// Every disruption scenario must hurt some router more than the
	// matched baseline — the whole point of the non-stationary replay.
	for _, name := range []string{"flashcrowd", "regionshift", "failure"} {
		diverged := false
		for _, rk := range ScenarioRouters {
			for _, auto := range []bool{false, true} {
				base := byKey[key{"baseline", rk, auto}]
				day := byKey[key{name, rk, auto}]
				if day.SLAViolationMin > base.SLAViolationMin ||
					day.TotalDrops > base.TotalDrops ||
					day.MaxP99MS > base.MaxP99MS*1.2 {
					diverged = true
				}
			}
		}
		if !diverged {
			t.Errorf("%s never diverged from the baseline replay", name)
		}
	}
	// The failure scenario must record dead servers mid-day.
	failDay := byKey[key{"failure", "p2c", true}]
	var sawDead bool
	for _, s := range failDay.Steps {
		if s.DeadServers > 0 {
			sawDead = true
			break
		}
	}
	if !sawDead {
		t.Error("failure scenario recorded no dead servers")
	}
	// Under the flash crowd, the autoscaler must not make any router
	// worse on violation minutes (it exists for exactly this event).
	for _, rk := range ScenarioRouters {
		off := byKey[key{"flashcrowd", rk, false}]
		on := byKey[key{"flashcrowd", rk, true}]
		if on.SLAViolationMin > off.SLAViolationMin {
			t.Errorf("flashcrowd/%s: autoscaler worsened violations %.1f -> %.1f",
				rk, off.SLAViolationMin, on.SLAViolationMin)
		}
	}
	out := r.Render()
	for _, frag := range []string{"Scenarios:", "flashcrowd", "worst added violation"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestScenarioDayRejectsUnknown(t *testing.T) {
	if _, err := ScenarioDay("no-such", fleet.RoundRobin, true, Seed); err == nil {
		t.Error("unknown scenario accepted")
	}
}
