package sim

import (
	"math"
	"testing"

	"hercules/internal/hw"
	"hercules/internal/model"
)

func mustModel() *model.Model { return model.DLRMRMC1(model.Prod) }
func mustServer() hw.Server   { return hw.ServerType("T7") }

// TestDebugAccelSD evaluates the accelerator placement with CPU-side
// sparse lookups at three sparse thread counts and checks that each
// result is physically consistent: it completes no more than it was
// offered, both utilizations are fractions, every latency is finite and
// positive, and mean power stays within the provisioned budget.
func TestDebugAccelSD(t *testing.T) {
	m := mustModel()
	s := New(mustServer(), m)
	for _, st := range []int{4, 8, 12} {
		cfg := Config{Place: PlaceAccelSD, SparseThreads: st, SparseWorkers: 1,
			AccelThreads: 2, Batch: 1024, FusionLimit: 2000}
		r, err := s.Evaluate(cfg, 50, 42)
		if err != nil {
			t.Fatalf("st=%d: %v", st, err)
		}
		t.Logf("st=%d rate=50: %+v", st, r)
		if r.CompletedQPS > r.OfferedQPS {
			t.Errorf("st=%d: completed %.2f QPS > offered %.2f", st, r.CompletedQPS, r.OfferedQPS)
		}
		for i, u := range []float64{r.CPUUtil, r.GPUUtil} {
			if !(u >= 0 && u <= 1) {
				t.Errorf("st=%d: %s utilization %v outside [0, 1]", st, []string{"cpu", "gpu"}[i], u)
			}
		}
		for i, ms := range []float64{r.MeanMS, r.P50MS, r.P95MS, r.P99MS} {
			if !(ms > 0) || math.IsInf(ms, 0) {
				t.Errorf("st=%d: %s latency %v ms, want finite and positive", st, []string{"mean", "p50", "p95", "p99"}[i], ms)
			}
		}
		if r.AvgPowerW > r.ProvisionedW {
			t.Errorf("st=%d: mean power %.1f W > provisioned %.1f W", st, r.AvgPowerW, r.ProvisionedW)
		}
	}
}
