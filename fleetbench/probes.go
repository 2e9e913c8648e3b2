package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hercules/internal/cluster"
	"hercules/internal/fleet"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// probeDur is how long each probe repeats its batch of calls.
const probeDur = 150 * time.Millisecond

// Sinks keep probe results live so the compiler cannot drop the calls.
var (
	sinkInt   int
	sinkFloat float64
	sinkRand  *rand.Rand
)

// probeInputs shapes the layer probes by the workload: its policies and
// tuning, its first region's fleet and day, the peak interval's
// per-model loads and provisioning, and the query stream at that peak
// of the model with the largest pool.
type probeInputs struct {
	spec   fleet.Spec
	table  *profiler.Table
	fleet  hw.Fleet
	policy cluster.Policy
	loads  []map[string]float64 // offered QPS per model, per interval
	peak   int
	// alloc is the peak interval's provisioning, poolSizes its servers
	// per model, and model the model with the largest pool.
	alloc     cluster.Allocation
	poolSizes map[string]int
	model     *model.Model
	sliceS    float64
	queries   []workload.Query
}

func newProbeInputs(spec fleet.Spec, table *profiler.Table, ws []cluster.Workload) (*probeInputs, error) {
	fleetName := spec.Fleet
	if len(spec.Regions) > 0 && spec.Regions[0].Fleet != "" {
		fleetName = spec.Regions[0].Fleet
	}
	fl, err := hw.NamedFleet(fleetName)
	if err != nil {
		return nil, err
	}
	pol, err := cluster.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	in := &probeInputs{spec: spec, table: table, fleet: fl, policy: pol}
	peakQPS := -1.0
	for i := 0; i < ws[0].Trace.Steps(); i++ {
		loads := make(map[string]float64, len(ws))
		total := 0.0
		for _, w := range ws {
			loads[w.Model] += w.Trace.LoadsQPS[i]
			total += w.Trace.LoadsQPS[i]
		}
		in.loads = append(in.loads, loads)
		if total > peakQPS {
			in.peak, peakQPS = i, total
		}
	}
	// The probed model is the one with the largest pool at the peak:
	// the pool a router scans and the stream its instances serve.
	in.alloc = in.provisioner().Step(in.loads[in.peak]).Alloc
	in.poolSizes = make(map[string]int)
	for _, row := range in.alloc {
		for m, n := range row {
			in.poolSizes[m] += n
		}
	}
	name := spec.Models[0]
	for _, m := range spec.Models {
		if in.poolSizes[m] > in.poolSizes[name] {
			name = m
		}
	}
	if in.model, err = model.ByName(name, model.Prod); err != nil {
		return nil, err
	}
	// The engine's slice sizing: the full slice unless the offered rate
	// would exceed the per-interval query budget.
	in.sliceS = spec.Options.SliceS
	if budget := float64(spec.Options.MaxQueriesPerInterval); budget > 0 && peakQPS*in.sliceS > budget {
		in.sliceS = budget / peakQPS
	}
	gen := workload.NewGenerator(in.model, in.loads[in.peak][name], spec.Options.Seed)
	in.queries = gen.AppendUntil(nil, in.sliceS)
	if len(in.queries) == 0 || in.poolSizes[name] == 0 {
		return nil, fmt.Errorf("probes: %s has no queries or no servers at the peak interval", name)
	}
	return in, nil
}

// run times each layer's public entry point on the probe inputs and
// stores the per-layer metrics in out, recording one span per probe.
func (in *probeInputs) run(out map[string]metric, spans *spanLog) error {
	seed := in.spec.Options.Seed
	probe := func(name string, f func()) {
		start := time.Now()
		f()
		spans.add("probe."+name, 0, start, time.Now())
	}

	// Service grids: a fresh SimService over the workload's table, every
	// query priced on the serving types in turn, cold and then warm.
	svc := fleet.NewSimService(in.table)
	var types []string
	for _, srv := range in.fleet.Types {
		if e, ok := in.table.Get(srv.Type, in.model.Name); ok && e.QPS > 0 {
			types = append(types, srv.Type)
		}
	}
	if len(types) == 0 {
		return fmt.Errorf("probes: no server type serves %s", in.model.Name)
	}
	serve := func() int {
		for i, q := range in.queries {
			sinkFloat += svc.ServiceS(types[i%len(types)], in.model.Name, q.Size, q.SparseScale)
		}
		return len(in.queries)
	}
	probe("sim.service_cold", func() {
		start := time.Now()
		n := serve()
		out["sim.service_cold_ns"] = metric{float64(time.Since(start).Nanoseconds()) / float64(n), "ns"}
	})
	probe("sim.service_warm", func() { out["sim.service_warm_ns"] = metric{timePer(probeDur, serve), "ns"} })

	probe("workload.gen", func() {
		var buf []workload.Query
		out["workload.gen_ns_per_query"] = metric{timePer(probeDur, func() int {
			g := workload.NewGenerator(in.model, in.loads[in.peak][in.model.Name], seed)
			buf = g.AppendUntil(buf[:0], in.sliceS)
			return len(buf)
		}), "ns"}
	})

	probe("stats.newrand", func() {
		out["stats.newrand_ns"] = metric{timePer(probeDur, func() int {
			for k := int64(0); k < 64; k++ {
				sinkRand = stats.NewRand(seed + k)
			}
			return 64
		}), "ns"}
	})

	var pool, bpool []*fleet.Instance
	probe("fleet.pool", func() { pool, bpool = in.pools(svc) })
	out["fleet.pool_size"] = metric{float64(len(pool)), "count"}
	out["stats.newrand_per_interval"] = metric{float64(in.newRandPerInterval()), "count"}

	router, err := fleet.NewRouter(in.spec.Router)
	if err != nil {
		return err
	}
	probe("fleet.pick", func() {
		// Load the pool with the first half of the stream, then pick
		// repeatedly at the last arrival's instant.
		rng := stats.NewRand(seed)
		for _, p := range pool {
			p.Reset()
		}
		half := in.queries[:max(len(in.queries)/2, 1)]
		for _, q := range half {
			pool[router.Pick(pool, q.ArrivalS, rng)].Arrive(q.ArrivalS, q.Size, q.SparseScale)
		}
		now := half[len(half)-1].ArrivalS
		out["fleet.pick_ns"] = metric{timePer(probeDur, func() int {
			for k := 0; k < 256; k++ {
				sinkInt += router.Pick(pool, now, rng)
			}
			return 256
		}), "ns"}
	})

	probe("fleet.arrive", func() {
		out["fleet.arrive_ns"] = metric{timePer(probeDur, func() int {
			for _, p := range pool {
				p.Reset()
			}
			for i, q := range in.queries {
				if _, drop := pool[i%len(pool)].Arrive(q.ArrivalS, q.Size, q.SparseScale); drop {
					sinkInt++
				}
			}
			return len(in.queries)
		}), "ns"}
	})

	probe("fleet.arrive_batched", func() {
		var comps []fleet.Completion
		out["fleet.arrive_batched_ns"] = metric{timePer(probeDur, func() int {
			for _, p := range bpool {
				p.Reset()
			}
			for i, q := range in.queries {
				comps, _ = bpool[i%len(bpool)].ArriveBatched(q.ID, q.ArrivalS, q.Size, q.SparseScale, comps[:0])
			}
			for _, p := range bpool {
				comps = p.FlushPending(comps[:0])
			}
			return len(in.queries)
		}), "ns"}
	})

	var latMS []float64
	probe("fleet.slice", func() {
		slicePool := pool
		if in.spec.Options.MaxBatch > 1 {
			slicePool = bpool
		}
		var lat []float64
		out["fleet.slice_ns_per_query"] = metric{timePer(probeDur, func() int {
			lat = fleet.ReplaySlice(in.spec.Router, slicePool, in.queries, seed).LatS
			return len(in.queries)
		}), "ns"}
		for _, l := range lat {
			latMS = append(latMS, l*1e3)
		}
	})

	// Tail layer: the slice's latencies cut into the engine's windows.
	windows := stats.ClampInt(int(in.sliceS/in.spec.Options.WindowS), 2, 600)
	window := func(w int) []float64 {
		return latMS[w*len(latMS)/windows : (w+1)*len(latMS)/windows]
	}
	probe("stats.select", func() {
		var buf []float64
		out["stats.select_ns_per_sample"] = metric{timePer(probeDur, func() int {
			for w := 0; w < windows; w++ {
				buf = append(buf[:0], window(w)...)
				if len(buf) > 0 {
					sinkFloat += stats.PercentileSelect(buf, 95)
				}
			}
			return len(latMS)
		}), "ns"}
	})
	sketches := make([]*stats.Sketch, windows)
	for w := range sketches {
		sketches[w] = stats.NewSketch(stats.DefaultSketchAlpha)
	}
	probe("stats.sketch_add", func() {
		out["stats.sketch_add_ns"] = metric{timePer(probeDur, func() int {
			for w, sk := range sketches {
				sk.Reset()
				for _, x := range window(w) {
					sk.Add(x)
				}
			}
			return len(latMS)
		}), "ns"}
	})
	probe("stats.sketch_merge", func() {
		merged := stats.NewSketch(stats.DefaultSketchAlpha)
		out["stats.sketch_merge_ns"] = metric{timePer(probeDur, func() int {
			merged.Reset()
			for _, sk := range sketches {
				merged.Merge(sk)
			}
			return len(sketches)
		}), "ns"}
	})

	probe("cluster.step", func() {
		out["cluster.step_us"] = metric{timePer(probeDur, func() int {
			prov := in.provisioner()
			for _, loads := range in.loads {
				sinkInt += prov.Step(loads).ActiveServers
			}
			return len(in.loads)
		}) / 1e3, "us"}
	})

	var traceErr error
	probe("telemetry.drain", func() {
		tr := telemetry.NewTracer(seed, 1, 0)
		tr.AddSink(telemetry.NewNDJSONWriter(io.Discard))
		var buf telemetry.ShardBuf
		buf.Arm(tr, in.peak, in.model.Name, 1)
		for _, q := range in.queries {
			ev := buf.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
			ev.Value, ev.Aux = float64(q.Size), q.SparseScale
			buf.Emit(telemetry.KindComplete, q.ID, q.ArrivalS)
		}
		out["telemetry.ns_per_event"] = metric{timePer(probeDur, func() int {
			tr.Ingest(buf.Events())
			tr.Flush()
			return buf.Len()
		}), "ns"}
		traceErr = tr.Close()
	})
	return traceErr
}

func (in *probeInputs) provisioner() *cluster.Provisioner {
	prov := cluster.NewProvisioner(in.fleet, in.table, in.policy, in.spec.Options.Seed)
	prov.OverProvisionR = in.spec.HeadroomR
	return prov
}

// pools builds the probed model's instances from the peak interval's
// allocation (types in sorted order), unbatched and batching. Channels
// are calibrated as the engine does: saturation throughput (channels /
// mean service time) covers the profiled capacity. Workloads that do
// not batch probe batching at a cap of 16 with a 2 ms wait.
func (in *probeInputs) pools(svc *fleet.SimService) (pool, bpool []*fleet.Instance) {
	types := make([]string, 0, len(in.alloc))
	for t := range in.alloc {
		types = append(types, t)
	}
	sort.Strings(types)
	maxBatch, wait := in.spec.Options.MaxBatch, in.spec.Options.BatchWaitS
	if maxBatch <= 1 {
		maxBatch, wait = 16, 0.002
	}
	name := in.model.Name
	sample := in.queries[:min(len(in.queries), 128)]
	for _, t := range types {
		entry, ok := in.table.Get(t, name)
		if !ok || entry.QPS <= 0 {
			continue
		}
		f := svc.PairService(t, name)
		var sum float64
		for _, q := range sample {
			sum += f(q.Size, q.SparseScale)
		}
		conc := 1
		if mean := sum / float64(len(sample)); mean > 0 && !math.IsInf(mean, 0) {
			conc = stats.ClampInt(int(math.Ceil(entry.QPS*mean)), 1, 256)
		}
		eff := svc.PairBatchEff(t, name, maxBatch)
		for k := 0; k < in.alloc[t][name]; k++ {
			pool = append(pool, fleet.NewInstance(len(pool), t, name, entry.QPS, conc, in.spec.Options.QueueCap, f))
			b := fleet.NewInstance(len(bpool), t, name, entry.QPS, conc, in.spec.Options.QueueCap, f)
			b.EnableBatching(maxBatch, wait, eff)
			bpool = append(bpool, b)
		}
	}
	return pool, bpool
}

// newRandPerInterval counts the RNG streams one region-interval seeds
// under the engine's current stream layout: per model, one per replay
// shard (min(NumCPU, pool size)), one for the generator, one for the
// shard split, and one for admission shedding when a policy is set.
func (in *probeInputs) newRandPerInterval() int {
	perModel := 2
	if in.spec.Admission != "" && in.spec.Admission != "none" {
		perModel++
	}
	n := 0
	for _, m := range in.spec.Models {
		n += perModel + max(min(runtime.NumCPU(), in.poolSizes[m]), 1)
	}
	return n
}
