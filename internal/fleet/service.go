package fleet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hercules/internal/hw"
	"hercules/internal/model"
	"hercules/internal/profiler"
	"hercules/internal/sim"
	"hercules/internal/stats"
	"hercules/internal/workload"
)

// serverByType is hw.ServerType without the panic: the fleet layer
// consumes allocations that may name types outside T1–T10 (tests build
// synthetic fleets), and an unknown type must surface as an error, not
// a crash.
func serverByType(label string) (srv hw.Server, err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("fleet: unknown server type %q", label)
		}
	}()
	return hw.ServerType(label), nil
}

// ServiceSource supplies per-query service times for the fleet engine:
// the time one server of the given type needs to serve one query of the
// given model with the server otherwise idle. Implementations must be
// safe for concurrent use (model pools replay concurrently).
type ServiceSource interface {
	ServiceS(serverType, modelName string, size int, scale float64) float64
}

// PairSource is an optional fast path a ServiceSource may implement:
// PairService resolves the (server type, model) pair once and returns a
// sampler the engine installs directly on each instance, so the replay
// loop never pays a per-query pair lookup. A nil return (unknown pair)
// sends the engine back to the generic ServiceS path.
type PairSource interface {
	PairService(serverType, modelName string) func(size int, scale float64) float64
}

// BatchSource is the optional batching extension of a ServiceSource:
// PairBatchEff returns the pair's batching-efficiency curve, a dense
// slice eff[0..maxBatch] where eff[n] is the service time of an
// n-query batch divided by the sum of its members' solo service times.
// eff[1] is 1 by construction; amortized dispatch overheads, weight
// streaming and kernel launches push larger batches below 1. The curve
// is resolved once per (pair, engine) at instance-build time — the
// per-query replay path never consults the source. A nil return means
// the source cannot price batches for the pair, and the engine serves
// that pair unbatched (unmeasured batching is never enabled).
type BatchSource interface {
	PairBatchEff(serverType, modelName string, maxBatch int) []float64
}

// SimService derives service times from the existing per-server
// simulator (internal/sim): each (server type, model) pair is served
// under the task-scheduling configuration recorded in the profiler
// efficiency table, and a query's service time is the latency the
// simulator reports for that single query on an idle server.
//
// Service times are precomputed on a dense (size bucket × scale bucket)
// grid per pair — filled lazily, read lock-free — so a full day of
// millions of queries costs only a few hundred cost-model evaluations
// per pair and the replay hot path is two table indexes.
type SimService struct {
	table *profiler.Table

	mu    sync.Mutex
	pairs map[pairKey]*pairSim
}

type pairKey struct {
	server string
	model  string
}

// The query-size ladder: geometric ~12%-wide buckets keep the sampler
// grid small (≈74 buckets up to ladderMaxSize) while staying within the
// cost model's accuracy. sizeIdxTab maps a raw size to its ladder
// index, sizeRepTab maps a ladder index to the representative size the
// simulator is evaluated at — both precomputed once so the per-query
// path does no log/pow math.
const (
	sizeLadder    = 1.12
	ladderMaxSize = 4096
	scaleBuckets  = 32
	// scaleCells is the per-size grid width: buckets 1..scaleBuckets for
	// positive scales plus a dedicated bucket 0 for scale-0 (dense-only)
	// queries, which must not be silently priced at scale 0.125.
	scaleCells = scaleBuckets + 1
)

var (
	sizeIdxTab [ladderMaxSize + 1]int16
	sizeRepTab []int
	ladderLen  int
)

func init() {
	ladderLen = ladderIdx(ladderMaxSize) + 1
	sizeRepTab = make([]int, ladderLen)
	for b := 0; b < ladderLen; b++ {
		sizeRepTab[b] = max(int(math.Round(math.Pow(sizeLadder, float64(b)))), 1)
	}
	for s := 0; s <= ladderMaxSize; s++ {
		sizeIdxTab[s] = int16(ladderIdx(s))
	}
}

// ladderIdx computes a size's ladder index the slow way (used to build
// the tables and for out-of-range sizes).
func ladderIdx(size int) int {
	if size <= 1 {
		return 0
	}
	return int(math.Round(math.Log(float64(size)) / math.Log(sizeLadder)))
}

func sizeBucket(size int) int {
	if size >= 0 && size <= ladderMaxSize {
		return sizeRepTab[sizeIdxTab[size]]
	}
	return max(int(math.Round(math.Pow(sizeLadder, float64(ladderIdx(size))))), 1)
}

// scaleBucket quantizes sparse scales to eighths, like internal/sim's
// cost memo. Zero (a dense model, or a query with no pooled work) gets
// its own bucket rather than being clamped up to 0.125.
func scaleBucket(scale float64) int {
	return stats.ClampInt(int(math.Round(scale*8)), 0, scaleBuckets)
}

// pairSim is the per-(server type, model) simulator with its
// precomputed service-time grid. vals[idx*scaleCells+sb] holds the
// service time for ladder index idx and scale bucket sb; ready flags
// gate lock-free reads (the value is published before its flag, so an
// acquire-load of the flag makes the value visible).
type pairSim struct {
	srv *sim.Server
	cfg sim.Config

	mu    sync.Mutex
	vals  []float64
	ready []atomic.Bool

	// overflow memoizes sizes beyond the ladder (never produced by the
	// workload generators, but ReplaySlice accepts arbitrary queries).
	overflow map[int64]float64
	// effs memoizes batching-efficiency curves by batch cap (built under
	// mu, read-only afterwards: callers share the returned slices).
	effs map[int][]float64
}

// NewSimService builds a service source over the given efficiency
// table. The table's entries must carry the task-scheduling Config the
// profiler found (entries hand-built without a Config fall back to a
// conservative default serving configuration).
func NewSimService(table *profiler.Table) *SimService {
	return &SimService{table: table, pairs: make(map[pairKey]*pairSim)}
}

// sharedServices caches one SimService per efficiency table, so every
// engine replaying against the same table shares the precomputed
// service-time grids instead of re-simulating them. Grid entries are
// pure functions of the (pair, size bucket, scale bucket) key, so
// sharing cannot leak state between runs — provided the table is not
// mutated after its first engine runs. Callers that edit table entries
// mid-process (table.Set after a replay) must install a fresh
// NewSimService on the engine themselves; the shared cache
// deliberately never invalidates.
var sharedServices sync.Map // *profiler.Table -> *SimService

// SharedSimService returns the process-wide SimService for the table.
// The table is treated as immutable from the first call on.
func SharedSimService(table *profiler.Table) *SimService {
	if s, ok := sharedServices.Load(table); ok {
		return s.(*SimService)
	}
	s, _ := sharedServices.LoadOrStore(table, NewSimService(table))
	return s.(*SimService)
}

// pair returns (building lazily) the simulator for one pair.
func (s *SimService) pair(serverType, modelName string) (*pairSim, error) {
	k := pairKey{serverType, modelName}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, ok := s.pairs[k]; ok {
		return ps, nil
	}
	m, err := model.ByName(modelName, model.Prod)
	if err != nil {
		return nil, err
	}
	srv, err := serverByType(serverType)
	if err != nil {
		return nil, err
	}
	cfg := DefaultServingConfig(srv)
	if e, ok := s.table.Get(serverType, modelName); ok && e.QPS > 0 {
		if e.Cfg.Validate(srv) == nil {
			cfg = e.Cfg
		}
	}
	ps := &pairSim{
		srv:   sim.New(srv, m),
		cfg:   cfg,
		vals:  make([]float64, ladderLen*scaleCells),
		ready: make([]atomic.Bool, ladderLen*scaleCells),
	}
	s.pairs[k] = ps
	return ps, nil
}

// ServiceS implements ServiceSource.
func (s *SimService) ServiceS(serverType, modelName string, size int, scale float64) float64 {
	ps, err := s.pair(serverType, modelName)
	if err != nil {
		// Unknown pair: infinite service so the caller drops the query
		// rather than inventing a latency.
		return math.Inf(1)
	}
	return ps.serviceS(size, scale)
}

// PairService implements PairSource.
func (s *SimService) PairService(serverType, modelName string) func(size int, scale float64) float64 {
	ps, err := s.pair(serverType, modelName)
	if err != nil {
		return nil
	}
	return ps.serviceS
}

// PairBatchEff implements BatchSource: the batching-efficiency curve
// is measured by evaluating internal/sim at representative batch
// sizes for the pair — a batch of n queries is simulated as one merged
// query of n × the median query size on a single-channel reduction of
// the pair's serving configuration — and interpolating between the
// measured points.
func (s *SimService) PairBatchEff(serverType, modelName string, maxBatch int) []float64 {
	if maxBatch < 2 {
		return nil
	}
	ps, err := s.pair(serverType, modelName)
	if err != nil {
		return nil
	}
	return ps.batchEffCurve(maxBatch)
}

func (p *pairSim) serviceS(size int, scale float64) float64 {
	sb := scaleBucket(scale)
	if size < 0 || size > ladderMaxSize {
		return p.overflowServiceS(size, sb)
	}
	cell := int(sizeIdxTab[size])*scaleCells + sb
	if p.ready[cell].Load() {
		return p.vals[cell]
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ready[cell].Load() {
		p.vals[cell] = p.simulate(sizeRepTab[sizeIdxTab[size]], sb)
		p.ready[cell].Store(true)
	}
	return p.vals[cell]
}

// overflowServiceS serves sizes beyond the precomputed ladder from a
// mutex-guarded memo (cold path; production workloads never reach it).
func (p *pairSim) overflowServiceS(size, sb int) float64 {
	rep := sizeBucket(size)
	key := int64(rep)<<8 | int64(sb)
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.overflow[key]; ok {
		return v
	}
	if p.overflow == nil {
		p.overflow = make(map[int64]float64)
	}
	v := p.simulate(rep, sb)
	p.overflow[key] = v
	return v
}

// simulate measures one idle-server query at the bucket representative.
func (p *pairSim) simulate(repSize, sb int) float64 {
	q := workload.Query{ID: 1, ArrivalS: 0, Size: repSize, SparseScale: float64(sb) / 8}
	res, err := p.srv.Simulate(p.cfg, []workload.Query{q}, 1)
	if err == nil && res.MeanMS > 0 {
		return res.MeanMS / 1e3
	}
	return math.Inf(1)
}

// repBatchItems is the per-query item count the batch grid is
// evaluated at: the default query-size distribution's median.
const repBatchItems = 110

// batchEffCurve measures (and memoizes) the pair's batching-efficiency
// curve up to maxBatch: representative batch sizes (powers of two plus
// the cap) are simulated as that many simultaneous median-size queries
// on the pair's full serving configuration, the whole-server batch
// makespan is normalized by n × the solo makespan, and the curve is
// linearly interpolated in between. Returns nil when the simulator
// cannot price the pair.
//
// The curve is whole-server by construction — a batch of n fills the
// thread pool / accelerator occupancy that a solo query leaves idle —
// which is why a batching Instance serves as a single server-wide
// channel: eff[n] × (n solo times) IS the server's batch makespan, and
// n / makespan its batched saturation throughput.
func (p *pairSim) batchEffCurve(maxBatch int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if eff, ok := p.effs[maxBatch]; ok {
		return eff
	}
	if p.effs == nil {
		p.effs = make(map[int][]float64)
	}
	eff := p.measureEffCurve(maxBatch)
	p.effs[maxBatch] = eff
	return eff
}

func (p *pairSim) measureEffCurve(maxBatch int) []float64 {
	solo := p.batchMakespan(1)
	if math.IsInf(solo, 0) || solo <= 0 {
		return nil
	}
	pts := []int{1}
	for b := 2; b < maxBatch; b *= 2 {
		pts = append(pts, b)
	}
	pts = append(pts, maxBatch)
	effAt := make([]float64, len(pts))
	effAt[0] = 1
	for i := 1; i < len(pts); i++ {
		t := p.batchMakespan(pts[i])
		if math.IsInf(t, 0) || t <= 0 {
			return nil
		}
		effAt[i] = t / (float64(pts[i]) * solo)
	}
	eff := make([]float64, maxBatch+1)
	eff[0] = 1
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		for n := lo; n <= hi; n++ {
			frac := 0.0
			if hi > lo {
				frac = float64(n-lo) / float64(hi-lo)
			}
			eff[n] = effAt[i-1] + frac*(effAt[i]-effAt[i-1])
		}
	}
	// Sanity rails: a batch is never faster than its longest member
	// (eff ≥ 1/n) and never slower than draining the members through
	// the server one at a time (eff ≤ 1).
	for n := 1; n <= maxBatch; n++ {
		eff[n] = math.Min(math.Max(eff[n], 1/float64(n)), 1)
	}
	return eff
}

// batchMakespan measures an idle server of the pair's full serving
// configuration clearing b simultaneous median-size queries: the
// whole-server batch makespan (CompletedQPS is queries over the true
// makespan when the nominal window is shorter).
func (p *pairSim) batchMakespan(b int) float64 {
	qs := make([]workload.Query, b)
	for i := range qs {
		qs[i] = workload.Query{ID: int64(i + 1), ArrivalS: 0, Size: repBatchItems, SparseScale: 1}
	}
	res, err := p.srv.Simulate(p.cfg, qs, 1e-3)
	if err == nil && res.CompletedQPS > 0 {
		return float64(b) / res.CompletedQPS
	}
	return math.Inf(1)
}

// meanServiceS estimates the expected per-query service time of a pair
// under the default query-size distribution by averaging the source
// over a fixed deterministic sample. The engine uses it to calibrate
// per-instance concurrency against the profiled capacity.
func meanServiceS(src ServiceSource, serverType, modelName string, seed int64) float64 {
	const draws = 128
	r := stats.NewRand(seed)
	d := workload.DefaultQuerySizes()
	var sum float64
	n := 0
	for i := 0; i < draws; i++ {
		size := d.Draw(r)
		scale := stats.Lognormal(r, -0.045, 0.3) // mean-1 pooling multiplier
		v := src.ServiceS(serverType, modelName, size, scale)
		if math.IsInf(v, 0) || v <= 0 {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// DefaultServingConfig returns a conservative task-scheduling
// configuration for serving on the given server when no profiled
// configuration is available: half the cores as two-worker inference
// threads on CPUs, and an S-D split with query fusion on accelerated
// servers. NMP DIMMs are used whenever present.
func DefaultServingConfig(srv hw.Server) sim.Config {
	if srv.HasGPU() {
		threads := min(8, max(1, srv.CPU.PhysicalCores/2))
		return sim.Config{
			Place:         sim.PlaceAccelSD,
			SparseThreads: threads,
			SparseWorkers: 2,
			Batch:         256,
			AccelThreads:  2,
			FusionLimit:   2000,
			UseNMP:        srv.HasNMP(),
		}
	}
	threads := max(1, srv.CPU.PhysicalCores/2)
	return sim.Config{
		Place:     sim.PlaceCPUModel,
		Threads:   threads,
		OpWorkers: 2,
		Batch:     256,
		UseNMP:    srv.HasNMP(),
	}
}

// ServingConfigCandidates returns a small ladder of serving
// configurations for quick calibration (profiler.CalibratePair over
// each, keep the best) when the full Algorithm 1 search is too slow.
// The ladder spans the placements that matter: plain co-location,
// tight-SLA small batches, the S-D pipeline that rescues the big
// memory-bound models, and fusion variants on accelerated servers.
func ServingConfigCandidates(srv hw.Server) []sim.Config {
	cands := []sim.Config{DefaultServingConfig(srv)}
	cores := srv.CPU.PhysicalCores
	if srv.HasGPU() {
		base := cands[0]
		small := base
		small.Batch = 64
		one := base
		one.AccelThreads = 1
		return append(cands, small, one)
	}
	half := max(1, cores/2)
	return append(cands,
		sim.Config{Place: sim.PlaceCPUModel, Threads: cores, OpWorkers: 1, Batch: 64, UseNMP: srv.HasNMP()},
		sim.Config{Place: sim.PlaceCPUSD, Threads: half, OpWorkers: 1,
			SparseThreads: half, SparseWorkers: 1, Batch: 64, UseNMP: srv.HasNMP()},
	)
}
