package experiments

import (
	"fmt"
	"strings"
	"sync"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/sim"
)

// Seed is the default deterministic seed for all experiments.
const Seed = 42

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render() string
}

var (
	herculesTableOnce sync.Once
	herculesTable     *profiler.Table
)

// HerculesTable returns the process-wide efficiency table profiled with
// the Hercules task scheduler over all six prod models × T1–T10
// (Fig. 9b). Building it is expensive (minutes); it is memoized.
func HerculesTable() *profiler.Table {
	herculesTableOnce.Do(func() {
		herculesTable = profiler.BuildTable(model.Zoo(model.Prod), hw.AllServerTypes(),
			profiler.Options{Sched: profiler.Hercules, Seed: Seed})
	})
	return herculesTable
}

// SetHerculesTable injects a prebuilt table (e.g. loaded from a JSON
// cache by the CLIs) so subsequent experiments skip profiling.
func SetHerculesTable(t *profiler.Table) {
	herculesTableOnce.Do(func() {})
	herculesTable = t
}

// header renders a figure banner.
func header(sb *strings.Builder, title string) {
	fmt.Fprintf(sb, "=== %s ===\n", title)
}

// bestBatchCapacity evaluates the configuration over the batch ladder
// and returns the best capacity point — the per-SLA batch sweep that the
// characterization figures use.
func bestBatchCapacity(s *sim.Server, mk func(batch int) sim.Config, slaMS float64, seed int64) (sim.Capacity, sim.Config) {
	var best sim.Capacity
	var bestCfg sim.Config
	hint := 0.0
	for _, b := range []int{32, 64, 128, 256, 512} {
		cfg := mk(b)
		c, err := s.FindCapacityHint(cfg, slaMS, seed, hint)
		if err != nil {
			continue
		}
		if c.QPS > best.QPS {
			best, bestCfg = c, cfg
		}
		if c.QPS > 0 {
			hint = c.QPS
		}
	}
	return best, bestCfg
}
