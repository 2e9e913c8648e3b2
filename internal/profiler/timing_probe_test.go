package profiler

import (
	"testing"
	"time"

	"hercules/internal/hw"
	"hercules/internal/model"
)

// TestTimingProbe profiles five (model, server) pairs end to end and
// logs each pair's wall time. Every entry must be servable (positive
// QPS), carry a configuration the server can run, and budget power
// between the server's idle floor and its TDP.
func TestTimingProbe(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, pair := range []struct{ m, srv string }{
		{"DLRM-RMC1", "T2"}, {"DLRM-RMC2", "T2"}, {"MT-WnD", "T7"}, {"DIEN", "T7"}, {"DLRM-RMC1", "T4"},
	} {
		m, err := model.ByName(pair.m, model.Prod)
		if err != nil {
			t.Fatal(err)
		}
		srv := hw.ServerType(pair.srv)
		start := time.Now()
		e := ProfilePair(m, srv, Options{Sched: Hercules, Seed: 42})
		t.Logf("%s on %s: %.0f QPS %.1f W cfg=%+v in %v", pair.m, pair.srv, e.QPS, e.PowerW, e.Cfg, time.Since(start))
		if e.QPS <= 0 {
			t.Errorf("%s on %s: QPS = %v, want > 0", pair.m, pair.srv, e.QPS)
		}
		if err := e.Cfg.Validate(srv); err != nil {
			t.Errorf("%s on %s: profiled config invalid: %v", pair.m, pair.srv, err)
		}
		if idle, tdp := srv.IdleWatts(), srv.TDPWatts(); e.PowerW < idle || e.PowerW > tdp {
			t.Errorf("%s on %s: power %.1f W outside [idle %.1f, TDP %.1f]",
				pair.m, pair.srv, e.PowerW, idle, tdp)
		}
	}
}
