package fleet

import (
	"math/rand"
	"strings"

	"hercules/internal/telemetry"
)

// Names of the built-in routing policies. A router is selected by its
// registered name (Spec.Router, ParseRouter, RouterFactory); these
// constants exist so in-repo callers don't scatter string literals.
const (
	// RoundRobin cycles through the model's instances regardless of
	// state — the heterogeneity- and load-oblivious baseline.
	RoundRobin = "rr"
	// LeastOutstanding picks the instance with the fewest outstanding
	// queries (full scan; the classic least-connections balancer).
	LeastOutstanding = "least"
	// PowerOfTwo samples two random instances and keeps the one with
	// fewer outstanding queries (Mitzenmacher's power of two choices):
	// nearly least-outstanding tails at O(1) cost.
	PowerOfTwo = "p2c"
	// WeightedHetero is the heterogeneity-aware policy: it minimizes
	// (outstanding+1)/weight where weight is the profiled capacity QPS
	// of the instance's (server type, model) pair — scaled by the
	// batched saturation gain when dynamic batching is enabled, so that
	// types whose batches amortize well (accelerators) absorb more
	// in-flight queries — and a V100 server legitimately holds many
	// more outstanding queries than a small CPU node before it is
	// considered loaded.
	WeightedHetero = "hetero"
)

// AllRouters lists the built-in routing policies in presentation
// order. RouterNames() is the full registry (sorted), including any
// policies registered outside this package.
var AllRouters = []string{RoundRobin, LeastOutstanding, PowerOfTwo, WeightedHetero}

func init() {
	RegisterRouter(RoundRobin, func() Router { return &roundRobin{} })
	RegisterRouter(LeastOutstanding, func() Router { return leastOutstanding{} })
	RegisterRouter(PowerOfTwo, func() Router { return powerOfTwo{} })
	RegisterRouter(WeightedHetero, func() Router { return weightedHetero{} })
}

// routerAliases maps accepted long spellings to registered names.
var routerAliases = map[string]string{
	"round-robin":         RoundRobin,
	"roundrobin":          RoundRobin,
	"least-outstanding":   LeastOutstanding,
	"lor":                 LeastOutstanding,
	"power-of-two":        PowerOfTwo,
	"poweroftwo":          PowerOfTwo,
	"weighted":            WeightedHetero,
	"heterogeneity-aware": WeightedHetero,
}

// ParseRouter normalizes a router name (case, whitespace, the long
// aliases of the built-ins) and validates it against the registry,
// returning the canonical registered name. The error on an unknown
// name lists every registered router.
func ParseRouter(s string) (string, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if canon, ok := routerAliases[name]; ok {
		name = canon
	}
	if _, err := RouterFactory(name); err != nil {
		return "", err
	}
	return name, nil
}

// Router picks a destination among a model's instances for each query.
// Implementations may keep per-pool state (e.g. a round-robin cursor)
// and are not safe for concurrent use: the engine instantiates a fresh
// Router per pool replay through the registered factory.
type Router interface {
	Name() string
	// Pick returns the index of the chosen instance. The slice is
	// non-empty and all instances serve the query's model.
	Pick(insts []*Instance, now float64, rng *rand.Rand) int
}

// TracedRouter is the optional tracing extension of Router: PickTraced
// must choose exactly the instance Pick would — same RNG draws, same
// state reads in the same order, same cursor advances — while filling
// the route event's candidate fields (Cand, NCand). The engine calls
// it only for queries in the trace sample, so recording costs nothing
// on the untraced path; routers that do not implement it still trace,
// with only the chosen instance recorded as a candidate.
//
// All four built-in routers implement TracedRouter. The byte-identity
// guarantee (traced replay == untraced replay, parallel == sequential)
// rests on the "identical decision" contract, which
// TestTracedRoutersMatchUntraced pins per router.
type TracedRouter interface {
	Router
	// PickTraced is Pick plus candidate recording into ev.
	PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int
}

// recordScan fills a route event's candidate fields for a full-scan
// router: the first MaxCandidates instance IDs, with NCand reporting
// the total considered (saturating at 255).
func recordScan(insts []*Instance, ev *telemetry.Event) {
	n := len(insts)
	for j := 0; j < n && j < telemetry.MaxCandidates; j++ {
		ev.Cand[j] = int32(insts[j].ID)
	}
	if n > 255 {
		n = 255
	}
	ev.NCand = uint8(n)
}

type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return RoundRobin }

func (r *roundRobin) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	i := r.next % len(insts)
	r.next++
	return i
}

// PickTraced implements TracedRouter: round robin considers exactly
// the instance the cursor lands on.
func (r *roundRobin) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	i := r.Pick(insts, now, rng)
	ev.Cand[0] = int32(insts[i].ID)
	ev.NCand = 1
	return i
}

type leastOutstanding struct{}

func (leastOutstanding) Name() string { return LeastOutstanding }

func (leastOutstanding) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	best, bestOut := 0, insts[0].Outstanding(now)
	for i := 1; i < len(insts); i++ {
		if out := insts[i].Outstanding(now); out < bestOut {
			best, bestOut = i, out
		}
	}
	return best
}

// PickTraced implements TracedRouter. Candidate recording reads only
// instance IDs, so the Outstanding scan below happens exactly as in
// Pick (Outstanding can launch a due batch — the inspection order is
// part of the replay's determinism contract).
func (r leastOutstanding) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	recordScan(insts, ev)
	return r.Pick(insts, now, rng)
}

type powerOfTwo struct{}

func (powerOfTwo) Name() string { return PowerOfTwo }

func (powerOfTwo) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	n := len(insts)
	if n == 1 {
		return 0
	}
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if insts[j].Outstanding(now) < insts[i].Outstanding(now) {
		return j
	}
	return i
}

// PickTraced implements TracedRouter: the same two RNG draws and the
// same Outstanding inspection order (j before i, matching Pick's
// left-to-right comparison) as the untraced decision, with both
// sampled candidates recorded.
func (powerOfTwo) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	n := len(insts)
	if n == 1 {
		ev.Cand[0] = int32(insts[0].ID)
		ev.NCand = 1
		return 0
	}
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	ev.Cand[0] = int32(insts[i].ID)
	ev.Cand[1] = int32(insts[j].ID)
	ev.NCand = 2
	if insts[j].Outstanding(now) < insts[i].Outstanding(now) {
		return j
	}
	return i
}

type weightedHetero struct{}

func (weightedHetero) Name() string { return WeightedHetero }

func (weightedHetero) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	best, bestLoad := 0, heteroLoad(insts[0], now)
	for i := 1; i < len(insts); i++ {
		if l := heteroLoad(insts[i], now); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// PickTraced implements TracedRouter (see leastOutstanding.PickTraced
// for the inspection-order caveat).
func (r weightedHetero) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	recordScan(insts, ev)
	return r.Pick(insts, now, rng)
}

// heteroLoad is the capacity-normalized congestion of an instance: how
// many "capacity units" the next query would wait behind (Outstanding
// counts a forming batch's members too, so a batching instance's
// queued-but-undispatched work is visible to every state-aware
// policy). Instances without a positive profiled weight fall back to
// weight 1.
func heteroLoad(in *Instance, now float64) float64 {
	w := in.Weight
	if w <= 0 {
		w = 1
	}
	return float64(in.Outstanding(now)+1) / w
}
