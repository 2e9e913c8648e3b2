// Package fleet is the request-level serving layer between the
// per-server simulator (internal/sim) and interval-level provisioning
// (internal/cluster): a discrete-event fleet engine that replays a
// diurnal day of Poisson query arrivals against the heterogeneous
// server fleet a cluster policy activates, with per-query routing,
// bounded per-server queues, windowed tail-latency tracking and an
// online autoscaler.
//
// The cluster layer answers "how many servers of each type does each
// workload need this interval?" from aggregate capacities; this
// package answers what actually happens to individual queries between
// re-provisioning decisions — queueing, load imbalance across a
// heterogeneous fleet, drops, and SLA-violation minutes — which
// aggregate-capacity models systematically hide. It extends the
// paper's Fig. 13 evaluation below the provisioning interval.
//
// The surface:
//
//   - Spec / CalibrateSpec / NewEngine — a JSON-serializable run
//     description (fleet, models, policies by name, scenario, tuning)
//     that drives both stages: CalibrateSpec builds its table, and
//     NewEngine its engine, with functional options (WithTable,
//     WithFleet, WithService, WithObserver, …) for the process-local
//     pieces a spec cannot carry. The engine reads its configuration
//     from Engine.Spec alone. Every CLI, experiment driver and example
//     builds engines this way, so a run is reproducible from one JSON
//     document;
//   - the policy tables — routing, autoscaling, admission and
//     geo-routing policies are named by Spec fields (Router, Scaler,
//     Admission, Geo) and built from four read-only tables in
//     registry.go, the closed set the paper compares: routers rr,
//     least, p2c, hetero; scalers breach, prop, carbon; admission
//     deadline, carbon; geo local, spill. Every implementation is
//     unexported, so the compiler keeps the set closed; a new policy
//     is a type plus one table entry in this package. NewRouter builds
//     one router by name for tools that route without an engine;
//   - Engine / RunDay — replay a day of cluster.Workload traces and
//     return per-interval and aggregate DayResult metrics;
//   - Observer — the per-interval streaming hook: RunDay pushes each
//     finalized IntervalStats through every registered observer, and
//     DayResult itself is just the built-in aggregation over the same
//     stream (hercules-fleet -ndjson is a plain observer);
//   - Router — per-query routing over a model's instance pool
//     (ReplaySlice replays one hand-built pool through RunDay's loop);
//   - Instance — one activated server as an M/G/c/(c+K) queue, with
//     optional dynamic batching (EnableBatching / Options.MaxBatch);
//   - Scaler — online autoscaling on one ScalerSignal per interval:
//     breach-driven ("breach"), target-utilization ("prop") and
//     grid-following ("carbon") scalers ship built in;
//   - Admission — SLA-aware load shedding at the front door
//     ("deadline" sheds on the previous interval's deadline
//     overshoot, "carbon" defers the deferrable class in dirty
//     hours); nil admits everything;
//   - CalibrateTable — a seconds-scale serving table when the full
//     Fig. 9b profiling run is too slow; CalibrateSpec calls it for a
//     Spec's models on the server types of its fleet and every
//     region's fleet;
//   - ApplyScenario / Engine.Timeline — inject an internal/scenario
//     timeline (flash crowds, failures, derates, shedding, cache
//     flushes) into the replay (Spec.Scenario names one and RunDay
//     compiles it);
//   - TraceSource / LoadTrace — replay a recorded NDJSON arrival
//     trace (Spec.Trace, or WithTraceSource for an in-memory one) in
//     place of the synthetic generator; re-ingesting a day recorded
//     at trace sample 1 reproduces its DayResult byte for byte
//     (TestRecordReplayRoundTrip pins it, FuzzTraceParse
//     holds the parser to errors-never-panics);
//   - CacheSpec (Spec.Cache) — an embedding-cache tier in front of
//     the fleet: hits resolve at the cache latency without touching a
//     router, misses route normally, and the realized hit rate tracks
//     per-model warmth state that scenario flush/mixshift events
//     degrade and misses re-warm. Provisioning sizes for the miss
//     stream using the previous interval's realized hit rate, which
//     is exactly why a flush storm hurts a warm-provisioned fleet;
//   - RegionSpec / NewMultiEngine — a Spec with a regions list becomes
//     a multi-region fleet: one engine per region (own fleet, diurnal
//     phase offset, RTT matrix), replayed in lockstep while the
//     selected GeoPolicy redistributes each interval's offered load.
//     The spill policy keeps traffic home until offered load nears
//     capacity, sheds overflow to the nearest survivor with headroom,
//     and evacuates blacked-out regions entirely; remotely served
//     queries pay the inter-region RTT and are accounted separately
//     (SpillInServed / SpillInDropped). Per-region DayResults merge
//     into the global aggregate via MergeDays (sums, max-of-max tails,
//     query-weighted mean tails — associative up to float rounding).
//     Spec.Normalize gives legacy specs one implicit region named
//     "local", and a one-region run delegates to the plain engine,
//     byte-identical to the committed goldens.
//
// Dynamic batching (Options.MaxBatch > 1) turns each instance into a
// batcher: queued queries coalesce into batches that launch when full,
// or at the formation-wait deadline once a channel frees, so batches
// grow toward the cap exactly when queues build. Batch service times
// come from a batch-dimension extension of the simulator grids: each
// pair's batching-efficiency curve is measured by simulating
// representative whole-server batch sizes (BatchSource /
// SimService.PairBatchEff), and a dispatched batch occupies min(n, c)
// channels for that makespan. The engine derives every (server type,
// model) pair's effective batch cap from its measured curve and SLA
// budget — pairs where batching loses (contended models, tight SLAs)
// keep serving unbatched — and scales the heterogeneity-aware router's
// weight to the batched saturation throughput. MaxBatch 1 preserves
// the original per-query replay bit for bit.
//
// Observability rides the replay without participating in it
// (internal/telemetry): Options.TraceSample enables the per-query
// tracer — lifecycle events (arrival, shed, route with the inspected
// candidate set, enqueue, batch, start, end, complete, drop) for a
// deterministically sampled 1-in-N of the query stream, staged in
// per-task buffers and drained in model-name order, so every replay of
// a spec emits a byte-identical trace at any worker count and the
// DayResult is unchanged traced or untraced. A router's one decision
// body is Router.PickTraced; Pick passes it no event.
// NewMetricsObserver folds the Observer stream into a
// telemetry.Registry of counters, gauges and sketch-backed histograms;
// the replay's own tails are always exact, selected from the
// per-window latency buffers by stats.Selector.
//
// Per-query service times come from the existing internal/sim cost
// model via SimService; nothing here re-implements server timing. Each
// activated server is an M/G/c/(c+K) queue whose concurrency c is
// calibrated so saturation throughput matches the profiled
// latency-bounded QPS of its (server type, model) pair.
//
// Replay is sampled: each trace interval simulates a slice of traffic
// at the interval's full arrival rate (long enough for stable tail
// estimates, capped by Options.MaxQueriesPerInterval) and extrapolates
// interval metrics from the slice. Each model's whole provisioned pool
// is routed as one unit: one replay task per (region × model) and
// interval, with its own seeded RNG streams. The tasks share nothing,
// so they run concurrently on up to GOMAXPROCS workers, and the worker
// count cannot change a result — a replay is a pure function of its
// spec. A task reads its stream in 1024-query chunks from a small ring;
// when there is a second core, a task offered more than its fair share
// of the load (always the lone task of a one-task interval) has them
// filled by a producer goroutine, overlapping query generation with
// routing, which likewise changes no result. CPU profiles label the replay's
// stages stage=generate, route and merge.
//
// The replay loop is engineered to stay off the allocator and the
// garbage collector: instance queues are index-based float64 min-heaps
// over preallocated slices, per-pair service times are precomputed on
// a dense grid shared process-wide (SharedSimService) and resolved to
// a direct sampler per instance, and pool tasks plus merge buffers
// are pooled across intervals. Route decisions and admissions are
// zero-alloc (guarded by alloc_test.go); fleetbench, a nested module at
// the repo root, measures the replay, and CI gates its allocations and
// throughput against the baseline in BENCH_fleet.json.
package fleet
