package fleet

import "math"

// Instance is one activated server in the fleet: an M/G/c/(c+K) queue
// whose per-query service times come from a ServiceSource. Concurrency
// c models the server's co-located inference threads (calibrated so
// saturation throughput matches the profiled latency-bounded QPS), and
// K is the bounded dispatch queue; arrivals beyond c+K (batched:
// max(c, MaxBatch)+K) outstanding queries are dropped.
//
// With EnableBatching, the instance becomes a dynamic batcher: queued
// queries coalesce into batches of up to MaxBatch, and a batch of n
// occupies min(n, c) service channels for the whole-batch makespan the
// pair's batching-efficiency curve prices. The channel-group occupancy
// keeps the model continuous with the unbatched queue — single-query
// batches pipeline across the c channels exactly like unbatched
// queries, while a full batch engages the whole server and collects
// the amortization the curve measured. A forming batch launches when
// it fills, or at its wait-window deadline once a channel is free —
// while the server is busy the batch keeps collecting, which is what
// lets batches grow toward MaxBatch under overload instead of
// splintering at the window. MaxBatch 1 (the default) preserves the
// original per-query replay bit for bit.
//
// Instances are not safe for concurrent use; the engine gives each
// model's replay task exclusive ownership of its pool.
type Instance struct {
	ID    int
	Type  string // server type label ("T1".."T10")
	Model string // model the server is provisioned for
	// Weight is the router's capacity signal (QPS): the profiled
	// latency-bounded capacity of this (type, model) pair, scaled by the
	// batched saturation gain when dynamic batching is enabled.
	Weight float64
	// Concurrency is the number of query slots (or batch slots, when
	// batching) the server works on at once.
	Concurrency int
	// QueueCap is the number of waiting slots behind the in-service
	// queries; 0 means no waiting room (pure loss system).
	QueueCap int
	// MaxBatch is the dynamic-batching cap: how many queued queries one
	// dispatch may coalesce (1 = no batching). BatchWaitS is the longest
	// a forming batch waits for companions before dispatching anyway.
	MaxBatch   int
	BatchWaitS float64

	svc func(size int, scale float64) float64
	// batchEff[n] prices an n-query batch as a fraction of the sum of
	// its members' solo service times (eff[1] = 1; amortized dispatch,
	// weight-streaming and kernel-launch costs push larger batches below
	// 1). nil means pure coalescing (eff ≡ 1).
	batchEff []float64

	// Virtual-time state for one replay slice. Both heaps are plain
	// float64 min-heaps maintained by the sift helpers below —
	// container/heap would box every completion instant into an
	// interface and turn the replay's innermost loop into an allocation
	// per query.
	free  []float64 // min-heap of per-channel next-free instants
	comps []float64 // min-heap of outstanding completion times
	busyS float64   // accumulated channel-seconds of service
	// horizon clips busy-second accounting to the replay slice: service
	// that extends past the slice end must not count toward this slice's
	// utilization (and hence its energy). +Inf disables clipping.
	horizon float64

	// Forming batch: member IDs, arrival instants and solo service
	// times, preallocated to MaxBatch by EnableBatching. pendOpen is the
	// oldest member's arrival (the wait window opens there).
	pendID   []int64
	pendArr  []float64
	pendSvc  []float64
	pendOpen float64
	// emitted buffers completions of batches launched by Outstanding
	// (router inspections observe virtual time too — a due batch must
	// stop counting as pending load the moment its launch instant
	// passes); the next ArriveBatched or FlushPending drains it.
	emitted []Completion

	// Served/Dropped count this slice's admissions and rejections.
	Served, Dropped int
}

// Completion records one batched query's full service timeline: its
// identity, arrival, the batch's dispatch instant and size, and the
// completion instant. The batched replay emits completions when a
// batch dispatches — possibly several queries at once, possibly none
// for a given arrival — instead of returning a completion per Arrive;
// ID and StartS exist so the tracer can reconstruct per-query enqueue,
// service-start and service-end events at that deferred point.
type Completion struct {
	ID       int64
	ArrivalS float64
	StartS   float64
	DoneS    float64
	// Batch is the size of the dispatch this query rode in.
	Batch int
}

// NewInstance builds an unbatched instance with the given service-time
// function.
func NewInstance(id int, serverType, modelName string, weight float64, concurrency, queueCap int, svc func(size int, scale float64) float64) *Instance {
	if concurrency < 1 {
		concurrency = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	return &Instance{
		ID:          id,
		Type:        serverType,
		Model:       modelName,
		Weight:      weight,
		Concurrency: concurrency,
		QueueCap:    queueCap,
		MaxBatch:    1,
		svc:         svc,
		horizon:     math.Inf(1),
		free:        make([]float64, concurrency),
		comps:       make([]float64, 0, concurrency+queueCap),
	}
}

// EnableBatching turns the instance into a dynamic batcher with the
// given batch cap, wait window and batching-efficiency curve (eff[n]
// for n in 0..maxBatch; nil prices batches as pure coalescing). All
// per-batch buffers are preallocated here so the per-query replay path
// stays off the allocator.
func (in *Instance) EnableBatching(maxBatch int, waitS float64, eff []float64) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	in.MaxBatch = maxBatch
	in.BatchWaitS = math.Max(waitS, 0)
	in.batchEff = eff
	in.pendID = make([]int64, 0, maxBatch)
	in.pendArr = make([]float64, 0, maxBatch)
	in.pendSvc = make([]float64, 0, maxBatch)
	in.emitted = make([]Completion, 0, maxBatch)
	// Admissions are bounded by the in-service capacity plus QueueCap
	// waiting; size the completion heap once so dispatch appends never
	// grow it.
	in.comps = make([]float64, 0, max(in.Concurrency, maxBatch)+in.QueueCap+maxBatch)
}

// Slowed returns a fresh instance identical to in except that every
// service time is multiplied by k (k > 1 models a derated server:
// thermal throttling, a sick disk). Weight is deliberately unchanged —
// the control plane and the heterogeneity-aware router keep believing
// the profiled capacity, which is exactly what makes derates dangerous.
func (in *Instance) Slowed(k float64) *Instance {
	base := in.svc
	out := NewInstance(in.ID, in.Type, in.Model, in.Weight, in.Concurrency, in.QueueCap,
		func(size int, scale float64) float64 { return base(size, scale) * k })
	if in.MaxBatch > 1 {
		out.EnableBatching(in.MaxBatch, in.BatchWaitS, in.batchEff)
	}
	return out
}

// Reset clears the virtual-time state for a new replay slice with an
// unbounded busy-accounting horizon.
func (in *Instance) Reset() { in.ResetSlice(math.Inf(1)) }

// ResetSlice clears the virtual-time state for a new replay slice of
// the given length: busy-seconds accrued by Arrive are clipped to
// [0, horizonS], so a long query admitted near the slice boundary
// contributes only the portion it actually serves inside the slice.
// horizonS <= 0 disables clipping.
func (in *Instance) ResetSlice(horizonS float64) {
	for i := range in.free {
		in.free[i] = 0
	}
	in.comps = in.comps[:0]
	in.busyS = 0
	in.pendID = in.pendID[:0]
	in.pendArr = in.pendArr[:0]
	in.pendSvc = in.pendSvc[:0]
	in.emitted = in.emitted[:0]
	if horizonS <= 0 {
		horizonS = math.Inf(1)
	}
	in.horizon = horizonS
	in.Served, in.Dropped = 0, 0
}

// Outstanding returns the number of admitted queries not yet complete
// at the given instant, including the members of a forming batch. A
// forming batch whose launch instant has passed is dispatched here
// (its completions buffer in emitted until the next ArriveBatched or
// FlushPending drains them), so router inspections never see phantom
// load from a batch that has virtually launched — the launch instant
// is a function of instance state alone, never of who observes it.
func (in *Instance) Outstanding(now float64) int {
	if len(in.pendArr) > 0 {
		if launch := math.Max(in.pendOpen+in.BatchWaitS, in.free[0]); launch <= now {
			in.emitted = in.dispatchPending(launch, in.emitted)
		}
	}
	h := in.comps
	for len(h) > 0 && h[0] <= now {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		siftDown(h, 0)
	}
	in.comps = h
	return len(h) + len(in.pendArr)
}

// Utilization returns the mean busy fraction of the instance's service
// channels over a slice of the given length.
func (in *Instance) Utilization(sliceS float64) float64 {
	if sliceS <= 0 || in.Concurrency == 0 {
		return 0
	}
	return math.Min(in.busyS/(float64(in.Concurrency)*sliceS), 1)
}

// addBusy accrues one service span's channel-seconds, clipped to the
// slice horizon.
func (in *Instance) addBusy(start, done float64) {
	if done > in.horizon {
		done = in.horizon
	}
	if done > start {
		in.busyS += done - start
	}
}

// Arrive offers one query (service keyed by size and scale) at time
// now. It returns the query's completion time and false, or 0 and true
// when the bounded queue rejects it. This is the unbatched path
// (MaxBatch 1); batching engines call ArriveBatched instead.
func (in *Instance) Arrive(now float64, size int, scale float64) (doneAt float64, dropped bool) {
	_, doneAt, dropped = in.arrive(now, size, scale)
	return doneAt, dropped
}

// arrive is Arrive's core, additionally exposing the service start
// instant (what separates queue wait from service span) so the traced
// replay can emit enqueue/start/end events without re-deriving queue
// state.
func (in *Instance) arrive(now float64, size int, scale float64) (startAt, doneAt float64, dropped bool) {
	if in.Outstanding(now) >= in.Concurrency+in.QueueCap {
		in.Dropped++
		return 0, 0, true
	}
	s := in.svc(size, scale)
	if math.IsInf(s, 0) || s <= 0 {
		in.Dropped++
		return 0, 0, true
	}
	// Earliest-free channel, non-preemptive FCFS: the heap root is the
	// channel that frees first. Which tied channel wins is irrelevant —
	// only the multiset of free instants feeds back into the replay.
	start := now
	if in.free[0] > now {
		start = in.free[0]
	}
	done := start + s
	in.free[0] = done
	siftDown(in.free, 0)
	in.addBusy(start, done)
	in.comps = append(in.comps, done)
	siftUp(in.comps, len(in.comps)-1)
	in.Served++
	return start, done, false
}

// ArriveBatched offers one query (identified by id, for the emitted
// Completions) to a batching instance at time now. A forming batch
// whose launch instant has passed dispatches first — a batch launches
// at its wait-window deadline or when the server frees, whichever is
// later, so batches keep collecting members while the server is busy
// and the launch instant never depends on when the replay happens to
// observe it. Then the query joins the forming batch, and a batch that
// reaches MaxBatch dispatches immediately. Completions emitted by
// either dispatch are appended to out; the second return reports
// whether this query was rejected by the bounded queue
// (max(Concurrency, MaxBatch) in service plus QueueCap waiting).
func (in *Instance) ArriveBatched(id int64, now float64, size int, scale float64, out []Completion) ([]Completion, bool) {
	out = in.drainEmitted(out)
	if len(in.pendArr) > 0 {
		if launch := math.Max(in.pendOpen+in.BatchWaitS, in.free[0]); launch <= now {
			out = in.dispatchPending(launch, out)
		}
	}
	if in.Outstanding(now) >= max(in.Concurrency, in.MaxBatch)+in.QueueCap {
		in.Dropped++
		return out, true
	}
	s := in.svc(size, scale)
	if math.IsInf(s, 0) || s <= 0 {
		in.Dropped++
		return out, true
	}
	if len(in.pendArr) == 0 {
		in.pendOpen = now
	}
	in.pendID = append(in.pendID, id)
	in.pendArr = append(in.pendArr, now)
	in.pendSvc = append(in.pendSvc, s)
	if len(in.pendArr) >= in.MaxBatch {
		out = in.dispatchPending(now, out)
	}
	return out, false
}

// Pending returns the size of the forming (not yet dispatched) batch.
func (in *Instance) Pending() int { return len(in.pendArr) }

// FlushPending drains buffered completions and dispatches the forming
// batch, if any, at its scheduled launch instant — the end-of-slice
// drain, so queries admitted late in a slice still complete and report
// latencies.
func (in *Instance) FlushPending(out []Completion) []Completion {
	out = in.drainEmitted(out)
	if len(in.pendArr) == 0 {
		return out
	}
	return in.dispatchPending(math.Max(in.pendOpen+in.BatchWaitS, in.free[0]), out)
}

// drainEmitted moves completions buffered by Outstanding-triggered
// dispatches into the caller's sink.
func (in *Instance) drainEmitted(out []Completion) []Completion {
	if len(in.emitted) > 0 {
		out = append(out, in.emitted...)
		in.emitted = in.emitted[:0]
	}
	return out
}

// dispatchPending launches the forming batch at time at on the
// min(n, c) earliest-free channels: the group barrier models the batch
// engaging that share of the server's parallelism for the whole-batch
// makespan — the members' solo service times summed and scaled by the
// batching-efficiency curve. Every member completes when the batch
// does, and one Completion per member is appended to out.
func (in *Instance) dispatchPending(at float64, out []Completion) []Completion {
	n := len(in.pendArr)
	var s float64
	for _, v := range in.pendSvc {
		s += v
	}
	if in.batchEff != nil && n < len(in.batchEff) {
		s *= in.batchEff[n]
	}
	// Claim the k earliest-free channels; the batch starts when the
	// last of them frees (or at the launch instant, if later).
	k := min(n, len(in.free))
	start := at
	h := in.free
	m := len(h)
	for i := 0; i < k; i++ {
		if h[0] > start {
			start = h[0]
		}
		m--
		h[0] = h[m]
		h = h[:m]
		siftDown(h, 0)
	}
	done := start + s
	for i := 0; i < k; i++ {
		h = append(h, done)
		siftUp(h, len(h)-1)
	}
	in.free = h
	clip := done
	if clip > in.horizon {
		clip = in.horizon
	}
	if clip > start {
		in.busyS += float64(k) * (clip - start)
	}
	for i, arr := range in.pendArr {
		in.comps = append(in.comps, done)
		siftUp(in.comps, len(in.comps)-1)
		out = append(out, Completion{ID: in.pendID[i], ArrivalS: arr, StartS: start, DoneS: done, Batch: n})
	}
	in.Served += n
	in.pendID = in.pendID[:0]
	in.pendArr = in.pendArr[:0]
	in.pendSvc = in.pendSvc[:0]
	return out
}

// siftUp restores the min-heap property after appending at index i.
func siftUp(h []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap property after replacing index i.
func siftDown(h []float64, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && h[r] < h[l] {
			least = r
		}
		if h[i] <= h[least] {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
