package telemetry

import "hercules/internal/stats"

// Kind identifies one lifecycle point in a traced query's path through
// the fleet engine.
type Kind uint8

// The event taxonomy, in pipeline order. A sampled query emits Arrival
// first, then either Shed (rejected at the front door before any router
// saw it), Hit (served from the cache tier at cache latency — never
// routed), or Route (the routing decision, with the candidate set) and
// from there Enqueue and either Drop (bounded queue full / unservable)
// or the service path: Batch (joined a forming batch; batched pools
// only), Start and End (the service span) and Complete (with the
// arrival-to-completion latency). Offer is per-(interval, model)
// metadata rather than a query event: the offered load the interval
// replayed, which is what lets an exported arrival trace re-provision
// (and therefore replay) byte-identically on re-ingestion
// (fleet.TraceSource).
const (
	KindArrival Kind = iota
	KindShed
	KindRoute
	KindEnqueue
	KindBatch
	KindStart
	KindEnd
	KindComplete
	KindDrop
	KindOffer
	KindHit
	numKinds
)

var kindNames = [numKinds]string{
	"arrival", "shed", "route", "enqueue", "batch", "start", "end", "complete", "drop",
	"offer", "hit",
}

// KindByName resolves a stable wire name ("arrival", "offer", ...)
// back to its Kind — the inverse of Kind.String, used by trace readers
// to validate the "k" field of re-ingested NDJSON lines.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// String returns the kind's stable wire name (the "k" field of the
// NDJSON trace format).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MaxCandidates caps how many routing candidates one Route event
// records inline. Full-scan routers (least, hetero) consider the whole
// pool; the event stores the first MaxCandidates instance IDs plus the
// true total in NCand, keeping the record fixed-size and reusable.
const MaxCandidates = 8

// Event is one trace record, written in place in its task's ShardBuf
// (whose backing array is reused across intervals) and read from there
// by the sinks. Model and Region are interned strings shared with the
// engine, so emitting an event allocates nothing.
//
// Field use by kind — TimeS is always the event's virtual-time instant
// within the interval's replayed slice:
//
//	Arrival   Value = query size (items); Aux = sparse scale
//	Shed      Value = shed fraction in force
//	Route     Instance = chosen; Cand[:NCand] = candidate IDs considered
//	          (first MaxCandidates), NCand = total considered
//	Enqueue   Instance; Value = queue wait seconds (start − arrival)
//	Batch     Instance; Value = position in the forming batch (1-based)
//	Start     Instance; Value = batch size dispatched with (1 unbatched)
//	End       Instance; Value = service span seconds
//	Complete  Instance; Value = total latency seconds
//	Drop      Instance = rejecting instance (−1 for an empty pool)
//	Offer     Query = −1 (interval metadata, not a query); Value =
//	          offered QPS of (interval, model); Aux = replayed slice
//	          seconds
//	Hit       Value = cache latency seconds (served from the cache
//	          tier, never routed)
type Event struct {
	Interval int32
	Kind     Kind
	NCand    uint8
	Instance int32
	Query    int64
	TimeS    float64
	Value    float64
	Aux      float64
	Model    string
	// Region labels which region's engine emitted the event in a
	// multi-region replay (the tracer's region, stamped by
	// ShardBuf.Emit); empty for single-region runs.
	Region string
	Cand   [MaxCandidates]int32
}

// Sink receives flushed trace events in deterministic order. Writes
// happen on the replay goroutine (between intervals), so a slow sink
// slows the replay — file sinks should buffer. A sink consumes events
// one at a time: how a flush splits them into batches never changes
// what it writes.
type Sink interface {
	// WriteEvents consumes one flushed batch; the slice is only valid
	// during the call (the staging buffers are reused).
	WriteEvents(evs []Event) error
	// Close flushes and releases the sink at end of run.
	Close() error
}

// Tracer is the deterministically-sampled per-query tracer of the
// fleet engine. It decides sample membership by a seeded hash of the
// query's (interval, model, index) identity — a pure function of the
// query, never of worker count or scheduling — so every replay of a
// spec samples the same queries and emits byte-identical traces.
// Events are staged in per-task buffers (ShardBuf, single-writer, no
// locks); the tracer holds no events of its own, only references to
// the buffers ingested since the last flush, which it writes to the
// attached sinks at every interval flush.
//
// SampleN is the sampling period: 1 traces every query, 1024 one in
// 1024. The Tracer itself is driven from the replay goroutine only;
// each ShardBuf is written by the one replay task that owns it.
type Tracer struct {
	// SampleN is the 1-in-N sampling period (min 1).
	SampleN int

	seed    int64
	region  string
	staged  [][]Event // ingested since the last Flush, in ingest order
	dropped uint64
	written uint64
	sinks   []Sink
	err     error
}

// NewTracer returns a tracer with the given sampling seed and period.
// The third argument is unused: the tracer stages no events of its own.
func NewTracer(seed int64, sampleN, _ int) *Tracer {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Tracer{SampleN: sampleN, seed: seed}
}

// AddSink attaches an export sink; repeat for several.
func (t *Tracer) AddSink(s Sink) { t.sinks = append(t.sinks, s) }

// SetRegion labels every event of the buffers armed from now on with
// the given region name (one interned string — no per-event
// allocation). Multi-region replays give each region's tracer its
// region; single-region runs leave it empty, and their trace bytes are
// unchanged.
func (t *Tracer) SetRegion(region string) { t.region = region }

// streamSeed derives the per-(interval, model) sampling stream a
// model's ShardBuf is armed with.
func (t *Tracer) streamSeed(interval int, modelHash int64) uint64 {
	return stats.SplitMix64(stats.SplitMix64(uint64(t.seed)^uint64(interval)) ^ uint64(modelHash))
}

// sampledIn reports whether the query with the given per-stream index
// is traced. Membership is a pure function of (seed, interval, model,
// index): every replay of the same spec samples the same queries, and
// no worker count or scheduling order can change the set.
func sampledIn(stream uint64, queryID int64, n int) bool {
	if n <= 1 {
		return true
	}
	return stats.SplitMix64(stream^uint64(queryID))%uint64(n) == 0
}

// Ingest stages one buffer's events for the next Flush. Called on the
// replay goroutine in deterministic (model-name) order. The tracer
// keeps a reference, not a copy: evs must stay unchanged until the
// next Flush.
func (t *Tracer) Ingest(evs []Event) {
	if len(evs) > 0 {
		t.staged = append(t.staged, evs)
	}
}

// Flush writes the staged events to every sink in ingest order and
// releases them. The engine calls it once per replayed interval, so
// sinks see a live stream rather than an end-of-run dump. With no sink
// attached the events are discarded and counted in Dropped.
func (t *Tracer) Flush() {
	for _, evs := range t.staged {
		if len(t.sinks) == 0 {
			t.dropped += uint64(len(evs))
			continue
		}
		for _, s := range t.sinks {
			if err := s.WriteEvents(evs); err != nil && t.err == nil {
				t.err = err
			}
		}
		t.written += uint64(len(evs))
	}
	clear(t.staged)
	t.staged = t.staged[:0]
}

// Close flushes the staged events and closes every sink, returning the
// first error any write or close produced.
func (t *Tracer) Close() error {
	t.Flush()
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Dropped returns how many events were flushed while no sink was
// attached (0 in any run that exports its trace).
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Written returns how many events reached the sinks.
func (t *Tracer) Written() uint64 { return t.written }

// ShardBuf is a replay task's staging buffer: exactly one model's
// replay task appends to it during an interval (no locks, backing
// array reused across intervals), and the engine hands every task's
// buffer to the tracer in model-name order afterwards. Arm binds the
// buffer to its (interval, model) sampling stream; Sampled answers the
// per-query membership test in a few arithmetic operations, which is
// what keeps the sampling-off and unsampled-query cost negligible on
// the replay hot path.
type ShardBuf struct {
	evs      []Event
	stream   uint64
	sampleN  int
	interval int32
	model    string
	region   string
}

// Arm re-binds the buffer for one interval's task: the sampling
// stream, the interval tag and the model and region labels stamped on
// every event.
func (b *ShardBuf) Arm(t *Tracer, interval int, model string, modelHash int64) {
	b.evs = b.evs[:0]
	b.stream = t.streamSeed(interval, modelHash)
	b.sampleN = t.SampleN
	b.interval = int32(interval)
	b.model = model
	b.region = t.region
}

// Sampled reports whether the query is in the trace sample.
func (b *ShardBuf) Sampled(queryID int64) bool {
	return sampledIn(b.stream, queryID, b.sampleN)
}

// Emit appends one event, stamping the buffer's interval, model and
// region. The returned pointer is valid until the next Emit or Arm —
// callers fill kind-specific fields in place (pooled records, no
// copies).
func (b *ShardBuf) Emit(kind Kind, queryID int64, timeS float64) *Event {
	b.evs = append(b.evs, Event{
		Interval: b.interval,
		Kind:     kind,
		Instance: -1,
		Query:    queryID,
		TimeS:    timeS,
		Model:    b.model,
		Region:   b.region,
	})
	return &b.evs[len(b.evs)-1]
}

// Events returns the staged events for draining.
func (b *ShardBuf) Events() []Event { return b.evs }

// Len returns the number of staged events.
func (b *ShardBuf) Len() int { return len(b.evs) }
