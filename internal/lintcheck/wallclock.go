package lintcheck

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallclockAnalyzer enforces the replay-determinism host contract:
// code in a replay-path package must not read wall-clock time, draw
// from the process-global math/rand source, or read the host's core
// count. Every result the repo reports is a function of its spec
// alone, which requires all time to be virtual (interval index ×
// slice length), all randomness to flow from an explicit seeded source
// or a query-identity hash, and no decision to depend on how many
// cores the host has.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Until, global math/rand draws and runtime.NumCPU/GOMAXPROCS in replay-path packages; " +
		"randomness must come from an explicit seeded *rand.Rand or a query-identity hash",
	Run: runWallclock,
}

// replayPackages are the packages whose code is (or feeds) the replay
// hot path, named relative to the module root.
var replayPackages = map[string]bool{
	"internal/fleet":     true,
	"internal/scenario":  true,
	"internal/sim":       true,
	"internal/telemetry": true,
	"internal/stats":     true,
	"internal/workload":  true,
	"internal/cluster":   true,
	"internal/grid":      true,
}

// isReplayPath matches both the real module path (hercules/internal/…)
// and the analysistest fixtures (loaded under the bare internal/…
// import path).
func isReplayPath(pkgPath string) bool {
	return replayPackages[strings.TrimPrefix(pkgPath, "hercules/")]
}

// wallclockTimeFuncs are the package time functions that read the
// wall clock.
var wallclockTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// hostFuncs are the package runtime functions that read (or set) the
// host's parallelism.
var hostFuncs = map[string]bool{
	"NumCPU":     true,
	"GOMAXPROCS": true,
}

// globalRandFuncs are the math/rand and math/rand/v2 package-level
// functions that draw from (or reseed) the shared global source.
// rand.New/NewSource/NewPCG/NewChaCha8 stay legal: they build the
// explicit seeded sources the replay is supposed to use.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Read": true,
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "N": true,
}

func runWallclock(pass *Pass) error {
	if !isReplayPath(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallclockTimeFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock in replay-path package %s; replay time must be virtual (interval index, slice offset)",
						fn.Name(), pass.Pkg.Path())
				}
			case "runtime":
				if hostFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"runtime.%s reads the host's core count in replay-path package %s; results must not depend on the host",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the process-global RNG in replay-path package %s; use an explicit seeded source or a query-identity hash",
						fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
