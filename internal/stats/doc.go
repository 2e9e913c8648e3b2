// Package stats provides small statistical utilities used throughout the
// Hercules simulator: percentile estimation over sample sets, fixed-bin
// histograms, deterministic RNG construction and seed mixing.
//
// All simulator randomness flows through rand.Rand instances created by
// NewRand, seeded by MixSeed/HashString sub-seeds, or through
// SplitMix64 hashes of a query's identity, so that every experiment is
// reproducible given its seed.
//
// The surface: Sample collects values and answers percentile queries
// (the tail-latency plumbing of every layer); PercentileSorted reads a
// sorted buffer. Selector is the exact selection kernel for hot loops
// that read a few percentile points: an MSD radix select over
// order-preserving keys of the float64 bits, O(n) and allocation-free
// once warmed. It reads one buffer or many segments in place, returns
// what PercentileSorted would on a sorted copy, bit for bit, and needs
// NaN-free input; Index/Query answer several unions of the same
// segments from one counting pass (the replay's window, model and
// interval tails). PercentileSelect and PercentilesSelect are its
// one-buffer forms over a pooled Selector, and Sketch is the
// bounded-error mergeable quantile sketch behind the telemetry
// histograms. Histogram covers binned distributions; Lognormal and
// Exponential are the seeded draws the workload generators use; Clamp
// and ClampInt are shared bounds helpers.
package stats
