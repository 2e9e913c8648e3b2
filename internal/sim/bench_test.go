package sim

import (
	"reflect"
	"testing"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/workload"
)

// placementCases is one representative configuration per placement:
// RMC1 on the CPU-only T2 for the host placements, on the GPU-equipped
// T7 for the accelerator ones.
var placementCases = []struct {
	name   string
	server string
	cfg    Config
}{
	{"cpu-model", "T2", Config{Place: PlaceCPUModel, Threads: 10, OpWorkers: 2, Batch: 128}},
	{"cpu-sd", "T2", Config{Place: PlaceCPUSD, SparseThreads: 8, SparseWorkers: 1,
		Threads: 4, OpWorkers: 1, Batch: 128}},
	{"accel-model", "T7", Config{Place: PlaceAccelModel, SparseThreads: 1, SparseWorkers: 1,
		AccelThreads: 2, Batch: 256, FusionLimit: 2000}},
	{"accel-sd", "T7", Config{Place: PlaceAccelSD, SparseThreads: 8, SparseWorkers: 1,
		AccelThreads: 2, Batch: 1024, FusionLimit: 2000}},
}

// TestCapacityMemoPure: FindCapacity prices every evaluation of its
// search from one shared cost memo, so the measurement it reports at
// the capacity point must equal a fresh Evaluate at that rate — the
// memo may only save work, never change an answer.
func TestCapacityMemoPure(t *testing.T) {
	m := model.DLRMRMC1(model.Prod)
	for _, pc := range placementCases {
		s := New(hw.ServerType(pc.server), m)
		c, err := s.FindCapacity(pc.cfg, m.SLATargetMS, 7)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if c.QPS <= 0 {
			t.Fatalf("%s: zero capacity; pick a config that serves RMC1", pc.name)
		}
		fresh, err := s.Evaluate(pc.cfg, c.QPS, 7)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if !reflect.DeepEqual(c.At, fresh) {
			t.Errorf("%s: capacity point %+v\ndiffers from a fresh evaluation %+v", pc.name, c.At, fresh)
		}
	}
}

// BenchmarkSimulate times one simulation of a 1400-query stream per
// placement: the unit FindCapacity repeats ~20 times per search.
func BenchmarkSimulate(b *testing.B) {
	m := model.DLRMRMC1(model.Prod)
	for _, pc := range placementCases {
		b.Run(pc.name, func(b *testing.B) {
			s := New(hw.ServerType(pc.server), m)
			const rate = 200
			window := evalWindow(rate)
			qs := workload.NewGenerator(m, rate, 1).Until(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Simulate(pc.cfg, qs, window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFindCapacity times one cold latency-bounded capacity search
// per placement — the offline stage's unit of work.
func BenchmarkFindCapacity(b *testing.B) {
	m := model.DLRMRMC1(model.Prod)
	for _, pc := range placementCases {
		b.Run(pc.name, func(b *testing.B) {
			s := New(hw.ServerType(pc.server), m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.FindCapacity(pc.cfg, m.SLATargetMS, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
