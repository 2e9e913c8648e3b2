// Package lintcheck is the hercules-lint analyzer suite: static
// enforcement of the invariants every reported result rests on.
//
// The repo's headline guarantee — a replay is byte-identical at any
// worker count, record→replay round trips are exact, FigRegions and
// the fleetbench output checks are trustworthy — is a determinism
// contract. Until now it was enforced only dynamically, by golden
// tests that catch a violation long after it is written. This package
// encodes the contracts as analyzers that fail CI the moment a
// violating line is typed:
//
//   - wallclock: no time.Now/Since/Until, no global math/rand draws
//     and no runtime.NumCPU/GOMAXPROCS in replay-path packages (fleet,
//     scenario, sim, telemetry, stats, workload, cluster, grid);
//     randomness must flow from an explicit seeded source or a
//     query-identity hash, and no result may depend on the host's core
//     count. The legal core-count reads, runInterval's worker count
//     and the calibration semaphore, carry a //lint:allow.
//   - maporder: no ranging over a map whose body appends to a slice,
//     writes an exported result field, or emits output/telemetry,
//     unless a deterministic sort follows in the same block.
//   - obscontract: Observer implementations neither spawn goroutines
//     nor retain the per-interval snapshot past the callback.
//
// plus local equivalents of the stock shadow and nilness passes. (The
// module is deliberately dependency-free and the upstream passes live
// in golang.org/x/tools, so the go/analysis framework shape is
// reimplemented here on go/ast + go/types, and packages are loaded
// with `go list -export` + the standard gc importer instead of
// go/packages. Porting an analyzer to the upstream framework is
// mechanical: Analyzer/Pass/Reportf have the same shape.)
//
// A legitimate violation is suppressed with a directive on the line
// itself or the line above the offending statement:
//
//	//lint:allow wallclock report provenance timestamp, not replay state
//
// The directive silences exactly the named analyzer on exactly that
// statement, and the reason is mandatory: a bare //lint:allow, a
// missing reason or an unknown analyzer name are themselves reported
// (as "lintdirective" diagnostics, which cannot be suppressed).
//
// Analyzers run over production code only; _test.go files are exempt
// (tests pin the same contracts dynamically). cmd/hercules-lint is the multichecker binary; CI runs it
// as a blocking job next to gofmt and go vet. Fixture packages under
// testdata/src/ give every analyzer analysistest-style coverage with
// both flagged and allowed cases.
package lintcheck
