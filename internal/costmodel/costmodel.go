package costmodel

import (
	"math"
	"slices"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/nmpsim"
)

// Params collects the calibration constants of the cost model. The
// defaults were tuned so that absolute magnitudes land in the ranges the
// paper reports; the *shapes* (who wins, where crossovers fall) are
// robust to moderate changes, which BenchmarkAblation_NoContention and
// friends probe.
type Params struct {
	// GatherBWPerCore is the random-gather bandwidth one CPU core can
	// generate (pointer-chasing embedding reads), bytes/sec.
	GatherBWPerCore float64
	// HostRandomEff derates channel bandwidth for random 64 B gathers
	// (row-buffer misses, channel overhead).
	HostRandomEff float64
	// StreamEff derates channel bandwidth for streaming (weight) reads.
	StreamEff float64
	// OpOverheadS is the per-operator framework dispatch overhead per
	// batch on the CPU.
	OpOverheadS float64
	// DispatchOverheadS is the per-batch scheduling overhead (queue
	// handoff, sub-query assembly).
	DispatchOverheadS float64
	// CommOverheadS is the sparse→dense pipeline handoff cost (pooled
	// output transfer through the intermediate queue, Fig. 10b).
	CommOverheadS float64
	// InterferenceKappa is the per-extra-co-located-thread slowdown of
	// dense compute (cache/scheduler interference).
	InterferenceKappa float64
	// GatherKappa is the per-extra-co-located-thread degradation of
	// aggregate random-gather bandwidth (TLB/prefetcher/LLC conflicts) —
	// the interference that makes fewer, fatter threads win at tight SLA
	// (Fig. 4).
	GatherKappa float64
	// CPUEff is the achieved fraction of peak per-core FLOP/s.
	CPUEff float64
	// GPUNHalfItems is the batch size at which a GPU kernel reaches half
	// of peak utilization (occupancy ramp).
	GPUNHalfItems float64
	// GPUFixedLoadS is the fixed per-transfer PCIe/driver setup time.
	GPUFixedLoadS float64
	// GRUKernelsPerStep is the number of kernel launches per recurrence
	// step (gates are fused).
	GRUKernelsPerStep float64
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		GatherBWPerCore:   6e9,
		HostRandomEff:     0.55,
		StreamEff:         0.80,
		OpOverheadS:       3e-6,
		DispatchOverheadS: 30e-6,
		CommOverheadS:     15e-6,
		InterferenceKappa: 0.008,
		GatherKappa:       0.022,
		CPUEff:            0.80,
		GPUNHalfItems:     192,
		GPUFixedLoadS:     12e-6,
		GRUKernelsPerStep: 1,
	}
}

// CPUBatchCost is the cost of serving one batch on one CPU inference
// thread.
type CPUBatchCost struct {
	ServiceS float64 // total service time (sparse + dense + overheads)
	SparseS  float64 // embedding phase (host gathers or NMP wait)
	DenseS   float64 // dense makespan over the thread's op workers
	// CoreBusyS is the core-seconds of occupancy this batch generates
	// (for CPU-utilization and power accounting).
	CoreBusyS float64
	// HostBytes is the main-memory traffic over the CPU channels.
	HostBytes float64
	// NMPBytes is the traffic served inside NMP DIMMs (0 without NMP).
	NMPBytes float64
	FLOPs    float64
}

// CPUBatch computes the service time of one batch of `items` ranked
// items executing the sub-graph `ids` on a CPU inference thread.
//
//	coThreads  — number of co-located inference threads on this CPU (m)
//	opWorkers  — physical cores assigned to this thread (o)
//	sparseScale — per-query pooling multiplier (workload.Query.SparseScale)
//	useNMP     — dispatch pooled Gather-Reduce ops to the NMP DIMMs
//
// The sparse phase runs first (embedding ops have no dependencies), then
// the dense phase is list-scheduled over the op workers.
func CPUBatch(p Params, srv hw.Server, g *model.Graph, ids []int, items int,
	sparseScale float64, coThreads, opWorkers int, useNMP bool, lut *nmpsim.LUT) CPUBatchCost {

	if coThreads < 1 {
		coThreads = 1
	}
	if opWorkers < 1 {
		opWorkers = 1
	}
	n := float64(items)
	var c CPUBatchCost

	// --- Sparse phase -------------------------------------------------
	var hostGatherBytes, nmpBytes, pooledOutBytes float64
	nSparse := 0
	for _, id := range ids {
		op := &g.Ops[id]
		if !op.Kind.IsSparse() {
			continue
		}
		nSparse++
		bytes := op.BytesPerItem * n * sparseScale
		if useNMP && srv.HasNMP() && op.Kind == model.OpEmbedPool {
			nmpBytes += bytes
			// Only the pooled vector crosses the channel to the host.
			if op.Table >= 0 {
				pooledOutBytes += float64(g.Model.Tables[op.Table].Dim) * 4 * n
			}
		} else {
			hostGatherBytes += bytes
		}
	}
	if hostGatherBytes > 0 {
		c.SparseS += hostGatherBytes / hostGatherBW(p, srv, coThreads, opWorkers)
	}
	if nmpBytes > 0 {
		ways := srv.Memory.NMPWays
		effBW := lut.AggregateBandwidth(ways) / float64(coThreads)
		c.SparseS += lut.FixedLaunchS + nmpBytes/effBW
		// Host-side: receive the pooled outputs.
		c.SparseS += pooledOutBytes / (srv.Memory.BandwidthBps * p.StreamEff / float64(coThreads))
	}
	if nSparse > 0 {
		c.SparseS += float64(nSparse) * p.OpOverheadS / float64(opWorkers)
	}
	c.HostBytes = hostGatherBytes + pooledOutBytes
	c.NMPBytes = nmpBytes

	// --- Dense phase ----------------------------------------------------
	dense := denseDurations(p, srv, g, ids, n, coThreads)
	if len(dense.ids) > 0 {
		c.DenseS = listSchedule(g, dense, opWorkers)
		c.FLOPs = dense.totalFLOPs
		c.HostBytes += dense.totalBytes
	}

	// --- Totals ---------------------------------------------------------
	c.ServiceS = p.DispatchOverheadS + c.SparseS + c.DenseS
	// Core occupancy: during the sparse phase all op workers participate
	// in (or spin on) gathers; during the dense phase only the working
	// time counts (idle workers show as low utilization, Fig. 4c/5).
	c.CoreBusyS = float64(opWorkers)*c.SparseS + dense.totalDur
	return c
}

// hostGatherBW returns one thread's share of random-gather bandwidth:
// the channel's random-access bandwidth degrades with each co-located
// gathering thread (GatherKappa), is split fairly, and is capped by what
// the thread's own cores can generate.
func hostGatherBW(p Params, srv hw.Server, coThreads, opWorkers int) float64 {
	aggregate := srv.Memory.BandwidthBps * p.HostRandomEff /
		(1 + p.GatherKappa*float64(coThreads-1))
	return math.Min(float64(opWorkers)*p.GatherBWPerCore, aggregate/float64(coThreads))
}

// denseWork carries the dense-phase durations for list scheduling.
type denseWork struct {
	ids        []int
	dur        []float64 // indexed by op ID (IDs index g.Ops)
	totalDur   float64
	totalFLOPs float64
	totalBytes float64
}

// denseDurations computes per-op durations for the dense ops of `ids`.
func denseDurations(p Params, srv hw.Server, g *model.Graph, ids []int, n float64, coThreads int) denseWork {
	w := denseWork{ids: make([]int, 0, len(ids)), dur: make([]float64, len(g.Ops))}
	eta := 1 / (1 + p.InterferenceKappa*float64(coThreads-1))
	coreFLOPS := srv.CPU.PeakCoreFLOPS() * p.CPUEff * eta
	// Weight streams come from DRAM only when the thread's working set
	// exceeds its LLC share.
	llcShare := float64(srv.CPU.LLCBytes) / float64(coThreads)
	var weightSum float64
	for _, id := range ids {
		if !g.Ops[id].Kind.IsSparse() {
			weightSum += g.Ops[id].WeightBytes
		}
	}
	weightsInLLC := weightSum <= llcShare
	streamBW := srv.Memory.BandwidthBps * p.StreamEff / float64(coThreads)
	for _, id := range ids {
		op := &g.Ops[id]
		if op.Kind.IsSparse() {
			continue
		}
		flopsT := op.FLOPsPerItem * n / coreFLOPS
		memBytes := op.BytesPerItem * n
		if !weightsInLLC {
			memBytes += op.WeightBytes
		}
		memT := memBytes / streamBW
		d := math.Max(flopsT, memT) + p.OpOverheadS
		w.ids = append(w.ids, id)
		w.dur[id] = d
		w.totalDur += d
		w.totalFLOPs += op.FLOPsPerItem * n
		if !weightsInLLC {
			w.totalBytes += op.WeightBytes + op.BytesPerItem*n
		}
	}
	return w
}

// listSchedule performs greedy list scheduling of the dense ops onto
// `workers` parallel operator workers, respecting dependencies, and
// returns the makespan. Ready ops are started in topological order on
// the earliest-free worker — the same policy a DL-framework's inter-op
// thread pool uses.
func listSchedule(g *model.Graph, w denseWork, workers int) float64 {
	// The simulator always prices the whole dense net, whose order the
	// graph caches; other subsets derive theirs.
	order := g.DenseOrder()
	if !slices.Equal(w.ids, g.DenseOps()) {
		order = g.TopoOrder(w.ids)
	}
	// finish stays 0 for ops outside w.ids, so a dependency outside the
	// scheduled subset never delays an op.
	finish := make([]float64, len(g.Ops))
	free := make([]float64, workers)
	var makespan float64
	for _, id := range order {
		ready := 0.0
		for _, dep := range g.Ops[id].DependsOn {
			if finish[dep] > ready {
				ready = finish[dep]
			}
		}
		// Earliest-free worker.
		wi := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[wi] {
				wi = i
			}
		}
		start := math.Max(ready, free[wi])
		end := start + w.dur[id]
		free[wi] = end
		finish[id] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// OpWorkerIdleFraction reports the idle fraction of `workers` parallel
// operator workers executing the model's dense graph at the given batch
// size (Fig. 5c): idle = 1 − busy/(workers × makespan).
func OpWorkerIdleFraction(p Params, srv hw.Server, g *model.Graph, items, workers int) float64 {
	w := denseDurations(p, srv, g, g.DenseOps(), float64(items), 1)
	if len(w.ids) == 0 || workers < 1 {
		return 0
	}
	makespan := listSchedule(g, w, workers)
	if makespan <= 0 {
		return 0
	}
	busy := w.totalDur
	return 1 - busy/(float64(workers)*makespan)
}

// GPUBatchCost is the cost of one fused batch on an accelerator thread.
type GPUBatchCost struct {
	LoadS    float64 // PCIe data-loading stage
	ComputeS float64 // kernel execution stage
	// PCIeBytes is the host→device transfer volume.
	PCIeBytes float64
	// HBMBytes is the device-memory traffic.
	HBMBytes float64
	FLOPs    float64
	Kernels  float64
}

// GPUBatch computes the two pipeline stages (Fig. 7) of one batch of
// `items` executing the dense sub-graph `denseIDs` on the accelerator.
//
//	pcieBytesPerItem      — partition payload crossing PCIe per item
//	                        (sparse indices, partial sums, pooled outputs)
//	                        on top of the dense features;
//	hbmGatherBytesPerItem — accelerator-resident embedding traffic per
//	                        item (hot gathers), scaled by sparseScale;
//	gatherKernels         — number of embedding-gather kernel launches.
//
// Use partition.FullModelAccel / ModelBasedAccel / SDAccel to derive the
// payload values for the three placements of Fig. 10.
func GPUBatch(p Params, gpu *hw.GPU, g *model.Graph, denseIDs []int, items int,
	sparseScale, pcieBytesPerItem, hbmGatherBytesPerItem float64, gatherKernels int) GPUBatchCost {

	n := float64(items)
	var c GPUBatchCost

	// --- Data loading ---------------------------------------------------
	loadBytes := (float64(g.Model.DenseInDim)*4 + pcieBytesPerItem) * n
	c.PCIeBytes = loadBytes
	c.LoadS = p.GPUFixedLoadS + loadBytes/gpu.PCIeBps

	// --- Kernel execution -----------------------------------------------
	eff := n / (n + p.GPUNHalfItems)
	if hbmGatherBytesPerItem > 0 && gatherKernels > 0 {
		bytes := hbmGatherBytesPerItem * n * sparseScale
		c.HBMBytes += bytes
		c.ComputeS += float64(gatherKernels)*gpu.KernelLaunchS + bytes/gpu.HBMBps
		c.Kernels += float64(gatherKernels)
	}
	for _, id := range denseIDs {
		op := &g.Ops[id]
		if op.Kind.IsSparse() {
			continue // sparse work is covered by the gather payload above
		}
		launches := 1.0
		if op.Sequential {
			// Recurrent steps launch kernels per timestep.
			seq := g.Model.Tables[seqTableIndex(g.Model)].MeanPooling()
			launches = seq * p.GRUKernelsPerStep
		}
		flopsT := op.FLOPsPerItem * n / (gpu.FLOPSPeak * eff)
		bytes := op.WeightBytes + op.BytesPerItem*n
		memT := bytes / gpu.HBMBps
		c.HBMBytes += bytes
		c.FLOPs += op.FLOPsPerItem * n
		c.ComputeS += launches*gpu.KernelLaunchS + math.Max(flopsT, memT)
		c.Kernels += launches
	}
	return c
}

// HostGather returns the service time and core occupancy of gathering
// `bytes` of embedding rows host-side with `opWorkers` cores, contending
// with `coThreads` co-located gathering threads (used by the partitioned
// accelerator placements where the host serves cold entries).
func HostGather(p Params, srv hw.Server, bytes float64, coThreads, opWorkers, nOps int) (serviceS, coreBusyS float64) {
	if coThreads < 1 {
		coThreads = 1
	}
	if opWorkers < 1 {
		opWorkers = 1
	}
	bw := hostGatherBW(p, srv, coThreads, opWorkers)
	serviceS = bytes/bw + float64(nOps)*p.OpOverheadS/float64(opWorkers)
	return serviceS, serviceS * float64(opWorkers)
}

// seqTableIndex returns the behaviour-sequence table index, or 0.
func seqTableIndex(m *model.Model) int {
	for i, t := range m.Tables {
		if !t.Pooled && t.PoolingMax > 1 {
			return i
		}
	}
	return 0
}
