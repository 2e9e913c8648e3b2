// Package telemetry provides the fleet engine's observability plane:
// a deterministically-sampled per-query tracer and a streaming metrics
// registry, both built to cost nothing measurable when disabled and to
// preserve the replay's byte-identity guarantee when enabled.
//
// # Tracing
//
// Tracer records lifecycle events (arrival, shed, route, enqueue,
// batch, start, end, complete, drop — see Kind) for a deterministic
// 1-in-N sample of queries. Sample membership is a seeded hash of the
// query's (interval, model, index) identity, never of worker count or
// scheduling order, so every replay of the same spec traces exactly
// the same queries. Each model's replay task stages its events in a
// single-writer ShardBuf; once per interval the engine ingests the
// buffers into the Tracer in model-name order and flushes them to the
// attached Sinks. NDJSONWriter emits a byte-stable
// newline-delimited JSON stream, ChromeWriter emits Chrome trace-event
// JSON for Perfetto / chrome://tracing, and CountSink counts without
// I/O (what benchmarks use).
//
// # Metrics
//
// Registry names three metric types: Counter (monotonic),
// Gauge (last value), and HistogramMetric — a streaming distribution
// backed by stats.Sketch, the mergeable relative-error quantile sketch,
// so any percentile is available at any time without buffering samples.
// Snapshot produces a JSON-serializable point-in-time view.
package telemetry
