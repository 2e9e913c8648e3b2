package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
)

// CalibrateTable builds a serving efficiency table in seconds: every
// (model, server type) pair is measured with profiler.CalibratePair
// over the ServingConfigCandidates ladder and the highest-capacity
// configuration wins. This replaces the full Fig. 9b profiling run
// (minutes of Algorithm 1 search) for fleet-replay tools that need a
// usable table, not an optimal one. Pairs are measured concurrently.
func CalibrateTable(models []*model.Model, servers []hw.Server, seed int64) (*profiler.Table, error) {
	type job struct {
		m   *model.Model
		srv hw.Server
	}
	jobs := make([]job, 0, len(models)*len(servers))
	for _, srv := range servers {
		for _, m := range models {
			jobs = append(jobs, job{m, srv})
		}
	}
	entries := make([]profiler.Entry, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	//lint:allow wallclock bounds concurrent calibrations; each pair's entry is seeded and independent
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var best profiler.Entry
			for _, cfg := range ServingConfigCandidates(j.srv) {
				e, err := profiler.CalibratePair(j.m, j.srv, cfg, seed)
				if err != nil {
					continue
				}
				if best.Server == "" || e.QPS > best.QPS {
					best = e
				}
			}
			if best.Server == "" {
				errs[i] = fmt.Errorf("fleet: no serving config found for %s on %s",
					j.m.Name, j.srv.Type)
				return
			}
			entries[i] = best
		}(i, j)
	}
	wg.Wait()
	t := &profiler.Table{}
	for i, e := range entries {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t.Set(e)
	}
	return t, nil
}
