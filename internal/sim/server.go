package sim

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"

	"hercules/internal/costmodel"
	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/nmpsim"
	"hercules/internal/partition"
	"hercules/internal/power"
	"hercules/internal/stats"
	"hercules/internal/workload"
)

// Server simulates one physical server serving one recommendation model.
type Server struct {
	HW     hw.Server
	Model  *model.Model
	Graph  *model.Graph
	Params costmodel.Params
	Power  power.Model
	LUT    *nmpsim.LUT
	// TailPercentile is the SLA tail point (the paper's latency-bounded
	// throughput uses the p95 tail, following DeepRecSys).
	TailPercentile float64
}

// New builds a server simulator with default calibration.
func New(srv hw.Server, m *model.Model) *Server {
	return &Server{
		HW:             srv,
		Model:          m,
		Graph:          model.BuildGraph(m),
		Params:         costmodel.DefaultParams(),
		Power:          power.Default(),
		LUT:            nmpsim.Default(),
		TailPercentile: 95,
	}
}

// Result summarizes one simulation run.
type Result struct {
	OfferedQPS   float64
	CompletedQPS float64
	MeanMS       float64
	P50MS        float64
	P95MS        float64
	P99MS        float64
	TailMS       float64 // latency at Server.TailPercentile
	CPUUtil      float64
	GPUUtil      float64
	AvgPowerW    float64
	ProvisionedW float64
	QPSPerWatt   float64
	// Per-query mean stage breakdown for accelerator placements (Fig. 7).
	QueueMS, LoadMS, ComputeMS float64
	Queries                    int
}

// Simulate serves the query stream under the given configuration and
// returns measured metrics. wallS is the nominal window length (the
// arrival span); utilization uses the true makespan when overloaded.
func (s *Server) Simulate(cfg Config, queries []workload.Query, wallS float64) (Result, error) {
	return s.simulate(cfg, queries, wallS, &evalScratch{memo: make(costMemo)})
}

// costMemo caches CPU batch costs keyed on (items, co-active threads,
// scale bucket, phase). The rest of a cost's inputs — the Config, the
// server's hardware, graph, Params and LUT — must stay fixed for the
// memo's lifetime, so one memo serves one Config's simulations and is
// dropped when they end (see the package doc).
type costMemo map[int64]costmodel.CPUBatchCost

// evalScratch is what one Config's simulations share, owned by one
// goroutine: the cost memo and the buffer each simulation gathers its
// latency sample into. A FindCapacity search (about twenty
// evaluations) also owns the Selector that reads the tails, so its
// buffers stay warm across the search instead of coming from stats'
// pool, which every GC empties. A one-off Simulate or Evaluate leaves
// sel nil and borrows a pooled Selector rather than allocate an 8 KB
// one for a single selection.
type evalScratch struct {
	memo costMemo
	sel  *stats.Selector
	lat  []float64
}

// simulate is Simulate pricing CPU batches from sc's memo.
func (s *Server) simulate(cfg Config, queries []workload.Query, wallS float64, sc *evalScratch) (Result, error) {
	if err := cfg.Validate(s.HW); err != nil {
		return Result{}, err
	}
	if len(queries) == 0 {
		return Result{}, fmt.Errorf("sim: empty query stream")
	}
	run := newRun(s, cfg, sc)
	switch cfg.Place {
	case PlaceCPUModel:
		run.cpuModelBased(queries)
	case PlaceCPUSD:
		run.cpuSDPipeline(queries)
	case PlaceAccelModel, PlaceAccelSD:
		run.accel(queries)
	}
	return run.finish(queries, wallS), nil
}

// run carries per-simulation state.
type run struct {
	s   *Server
	cfg Config

	// Partition products for accelerator placements.
	plan    partition.Plan
	payload partition.Payload

	// Resource free times.
	gpuFree, pcieFree float64

	// Completion and breakdown records per query.
	done    []float64
	queueS  []float64
	loadS   []float64
	computS []float64

	// Activity accounting.
	act power.Activity

	sc *evalScratch
}

func newRun(s *Server, cfg Config, sc *evalScratch) *run {
	r := &run{s: s, cfg: cfg, sc: sc}
	if cfg.Place.OnAccel() {
		budget := s.HW.GPU.MemoryBytes / int64(max(cfg.AccelThreads, 1))
		r.plan = partition.BuildPlan(s.Model, budget)
		switch cfg.Place {
		case PlaceAccelModel:
			r.payload = partition.ModelBasedAccel(r.plan)
		case PlaceAccelSD:
			r.payload = partition.SDAccel(r.plan)
		}
	}
	return r
}

// scaleBucket quantizes the per-query sparse scale for cost memoization.
// Zero keeps its own bucket (a dense query has no pooled work and must
// not be costed as if it pooled at scale 0.125).
func scaleBucket(scale float64) int {
	b := int(math.Round(scale * 8))
	return stats.ClampInt(b, 0, 32)
}

func bucketScale(b int) float64 { return float64(b) / 8 }

// cpuCost returns the (memoized) CPU batch cost for the given phase ops.
// phase: 0 = full graph, 1 = sparse only, 2 = dense only.
func (r *run) cpuCost(phase, items int, scale float64, coThreads, workers int) costmodel.CPUBatchCost {
	// coThreads is the instantaneous co-active thread count, so it joins
	// (items, scale bucket, phase) in the memo key.
	sb := scaleBucket(scale)
	key := int64(items)<<24 | int64(coThreads)<<16 | int64(sb)<<8 | int64(phase)
	if c, ok := r.sc.memo[key]; ok {
		return c
	}
	var ids []int
	switch phase {
	case 0:
		ids = r.s.Graph.AllOps()
	case 1:
		ids = r.s.Graph.SparseOps()
	default:
		ids = r.s.Graph.DenseOps()
	}
	c := costmodel.CPUBatch(r.s.Params, r.s.HW, r.s.Graph, ids, items,
		bucketScale(sb), coThreads, workers, r.cfg.UseNMP, r.s.LUT)
	r.sc.memo[key] = c
	return c
}

// subBatches yields a query's sub-query item counts of at most batch
// (the whole query when it fits, even when empty).
func subBatches(size, batch int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if batch >= size {
			yield(size)
			return
		}
		for size > 0 {
			b := min(batch, size)
			if !yield(b) {
				return
			}
			size -= b
		}
	}
}

// numSubBatches counts the sub-batches subBatches yields.
func numSubBatches(size, batch int) int {
	if batch >= size {
		return 1
	}
	return (size + batch - 1) / batch
}

// activeAt counts the threads still busy at `start`, plus the one about
// to start: the instantaneous co-location degree that drives memory
// contention. Using the configured thread count instead would charge an
// idle server full contention (threads that have nothing to do cannot
// interfere).
func activeAt(free []float64, start float64) int {
	n := 1
	for _, f := range free {
		if f > start {
			n++
		}
	}
	if n > len(free) {
		n = len(free)
	}
	return n
}

// earliest returns the index of the smallest element.
func earliest(free []float64) int {
	best := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[best] {
			best = i
		}
	}
	return best
}

// cpuModelBased simulates Fig. 3's model-based scheduling: m co-located
// threads each executing the whole graph on sub-query batches.
func (r *run) cpuModelBased(queries []workload.Query) {
	cfg := r.cfg
	free := make([]float64, cfg.Threads)
	r.done = make([]float64, len(queries))
	for qi, q := range queries {
		var qDone float64
		for items := range subBatches(q.Size, cfg.Batch) {
			ti := earliest(free)
			start := math.Max(q.ArrivalS, free[ti])
			c := r.cpuCost(0, items, q.SparseScale, activeAt(free, start), cfg.OpWorkers)
			free[ti] = start + c.ServiceS
			if free[ti] > qDone {
				qDone = free[ti]
			}
			r.account(c)
		}
		r.done[qi] = qDone
	}
}

// cpuSDPipeline simulates Fig. 10(b): SparseNet threads feeding DenseNet
// threads through an intermediate queue.
func (r *run) cpuSDPipeline(queries []workload.Query) {
	cfg := r.cfg
	sparseFree := make([]float64, cfg.SparseThreads)
	r.done = make([]float64, len(queries))

	type handoff struct {
		qi    int
		items int
		scale float64
		ready float64
	}
	n := 0
	for _, q := range queries {
		n += numSubBatches(q.Size, cfg.Batch)
	}
	hs := make([]handoff, 0, n)
	for qi, q := range queries {
		for items := range subBatches(q.Size, cfg.Batch) {
			ti := earliest(sparseFree)
			start := math.Max(q.ArrivalS, sparseFree[ti])
			c := r.cpuCost(1, items, q.SparseScale, activeAt(sparseFree, start), cfg.SparseWorkers)
			sparseFree[ti] = start + c.ServiceS
			r.account(c)
			hs = append(hs, handoff{qi, items, q.SparseScale,
				sparseFree[ti] + r.s.Params.CommOverheadS})
		}
	}
	// Dense stage consumes in completion order.
	slices.SortStableFunc(hs, func(a, b handoff) int { return cmp.Compare(a.ready, b.ready) })
	denseFree := make([]float64, cfg.Threads)
	for _, h := range hs {
		ti := earliest(denseFree)
		start := math.Max(h.ready, denseFree[ti])
		c := r.cpuCost(2, h.items, h.scale, activeAt(denseFree, start), cfg.OpWorkers)
		denseFree[ti] = start + c.ServiceS
		r.account(c)
		if denseFree[ti] > r.done[h.qi] {
			r.done[h.qi] = denseFree[ti]
		}
	}
}

// accel simulates the accelerator placements of Fig. 10(c)/(d): an
// optional host SparseNet stage, then fused batches flowing through the
// PCIe link and the GPU engine.
func (r *run) accel(queries []workload.Query) {
	cfg := r.cfg
	r.done = make([]float64, len(queries))
	r.queueS = make([]float64, len(queries))
	r.loadS = make([]float64, len(queries))
	r.computS = make([]float64, len(queries))

	// Stage 1: host sparse (cold entries under model-based placement,
	// everything under S-D). Whole-query granularity.
	ready := make([]float64, len(queries))
	hostWork := r.payload.HostGatherBytesPerItem
	if hostWork > 0 && cfg.SparseThreads > 0 {
		free := make([]float64, cfg.SparseThreads)
		for qi, q := range queries {
			ti := earliest(free)
			start := math.Max(q.ArrivalS, free[ti])
			bytes := hostWork * q.Items() * q.SparseScale
			svc, busy := costmodel.HostGather(r.s.Params, r.s.HW, bytes,
				activeAt(free, start), cfg.SparseWorkers, len(r.s.Model.Tables))
			svc += r.s.Params.DispatchOverheadS
			free[ti] = start + svc
			ready[qi] = free[ti] + r.s.Params.CommOverheadS
			r.act.CoreBusyS += busy
			r.act.HostBytes += bytes
		}
	} else {
		for qi, q := range queries {
			ready[qi] = q.ArrivalS
		}
	}

	// Stage 2: fusion + PCIe + GPU engine across co-located threads.
	type pend struct {
		qi    int
		ready float64
	}
	pending := make([]pend, len(queries))
	for qi := range queries {
		pending[qi] = pend{qi, ready[qi]}
	}
	slices.SortStableFunc(pending, func(a, b pend) int { return cmp.Compare(a.ready, b.ready) })

	threadFree := make([]float64, cfg.AccelThreads)
	denseIDs := r.s.Graph.DenseOps()
	gatherKernels := len(r.s.Model.Tables)
	pos := 0
	var batch []pend
	for pos < len(pending) {
		ti := earliest(threadFree)
		head := pending[pos]
		t := math.Max(threadFree[ti], head.ready)

		// Fuse queries that are ready by t, up to the fusion limit.
		batch = append(batch[:0], head)
		items := queries[head.qi].Size
		scaleSum := queries[head.qi].SparseScale * queries[head.qi].Items()
		next := pos + 1
		if cfg.FusionLimit > 0 {
			for next < len(pending) && pending[next].ready <= t {
				sz := queries[pending[next].qi].Size
				if items+sz > cfg.FusionLimit {
					break
				}
				batch = append(batch, pending[next])
				items += sz
				scaleSum += queries[pending[next].qi].SparseScale * float64(sz)
				next++
			}
		}
		pos = next
		scale := scaleSum / float64(items)

		c := costmodel.GPUBatch(r.s.Params, r.s.HW.GPU, r.s.Graph, denseIDs,
			items, scale, r.payload.PCIeBytesPerItem, r.payload.GPUGatherBytesPerItem,
			gatherKernels)
		loadStart := math.Max(t, r.pcieFree)
		r.pcieFree = loadStart + c.LoadS
		compStart := math.Max(r.pcieFree, r.gpuFree)
		r.gpuFree = compStart + c.ComputeS
		doneAt := r.gpuFree
		threadFree[ti] = doneAt

		r.act.PCIeBusyS += c.LoadS
		r.act.GPUBusyS += c.ComputeS
		r.act.HostBytes += c.PCIeBytes // staged through host memory

		for _, b := range batch {
			r.done[b.qi] = doneAt
			r.queueS[b.qi] = loadStart - b.ready
			r.loadS[b.qi] = c.LoadS
			r.computS[b.qi] = c.ComputeS + (compStart - r.pcieFree)
		}
	}
}

// account records a CPU batch's resource usage.
func (r *run) account(c costmodel.CPUBatchCost) {
	r.act.CoreBusyS += c.CoreBusyS
	r.act.HostBytes += c.HostBytes
	r.act.NMPBytes += c.NMPBytes
}

// finish computes the result metrics.
func (r *run) finish(queries []workload.Query, wallS float64) Result {
	var lastDone float64
	for _, d := range r.done {
		if d > lastDone {
			lastDone = d
		}
	}
	wall := math.Max(wallS, lastDone)
	r.act.WallS = wall

	// Latency sample, discarding the first 10% as warm-up.
	warm := len(queries) / 10
	lat := slices.Grow(r.sc.lat[:0], len(queries)-warm)
	var latSum, qSum, lSum, cSum float64
	for qi := warm; qi < len(queries); qi++ {
		l := (r.done[qi] - queries[qi].ArrivalS) * 1e3
		lat = append(lat, l)
		latSum += l
		if r.queueS != nil {
			qSum += r.queueS[qi]
			lSum += r.loadS[qi]
			cSum += r.computS[qi]
		}
	}
	r.sc.lat = lat
	n := float64(len(queries) - warm)
	// One selection reads every tail point; no sort.
	var pct [4]float64
	ps := []float64{50, 95, 99, r.s.TailPercentile}
	if r.sc.sel != nil {
		r.sc.sel.Percentiles([][]float64{lat}, ps, pct[:])
	} else {
		stats.PercentilesSelect(lat, ps, pct[:])
	}

	res := Result{
		OfferedQPS:   float64(len(queries)) / wallS,
		CompletedQPS: float64(len(queries)) / wall,
		P50MS:        pct[0],
		P95MS:        pct[1],
		P99MS:        pct[2],
		TailMS:       pct[3],
		CPUUtil:      r.act.CPUUtilization(r.s.HW.CPU),
		GPUUtil:      r.act.GPUUtilization(),
		Queries:      len(queries),
	}
	if n > 0 {
		res.MeanMS = latSum / n
		if r.queueS != nil {
			res.QueueMS = qSum / n * 1e3
			res.LoadMS = lSum / n * 1e3
			res.ComputeMS = cSum / n * 1e3
		}
	}
	res.AvgPowerW = r.s.Power.Average(r.s.HW, r.act)
	res.ProvisionedW = r.s.Power.Provisioned(r.s.HW, r.act)
	if res.AvgPowerW > 0 {
		res.QPSPerWatt = res.CompletedQPS / res.AvgPowerW
	}
	return res
}
