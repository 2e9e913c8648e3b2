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

// CalibrateSpec quick-calibrates the table a spec replays against: the
// spec's models (DefaultSpec's when it names none) on the server types
// of its top-level fleet and of every region's fleet, each type once
// in first-seen order, at the spec's seed. It is the offline stage of
// every spec-driven run: NewEngine and NewMultiEngine call it when no
// WithTable is given, and a caller that builds several engines from
// one spec calibrates once here and passes the table to each.
func CalibrateSpec(spec Spec) (*profiler.Table, error) {
	spec = spec.withDefaults()
	names := []string{spec.Fleet}
	for _, r := range spec.Regions {
		if r.Fleet != "" {
			names = append(names, r.Fleet)
		}
	}
	seen := make(map[string]bool)
	var types []hw.Server
	for _, name := range names {
		fl, err := hw.NamedFleet(name)
		if err != nil {
			return nil, err
		}
		for _, srv := range fl.Types {
			if !seen[srv.Type] {
				seen[srv.Type] = true
				types = append(types, srv)
			}
		}
	}
	return calibrateModels(spec.Models, types, spec.Options.Seed)
}

// calibrateModels resolves a spec's model names and calibrates them on
// the given server types: the one step from names to CalibrateTable.
func calibrateModels(names []string, types []hw.Server, seed int64) (*profiler.Table, error) {
	models := make([]*model.Model, 0, len(names))
	for _, name := range names {
		m, err := model.ByName(name, model.Prod)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		models = append(models, m)
	}
	return CalibrateTable(models, types, seed)
}
