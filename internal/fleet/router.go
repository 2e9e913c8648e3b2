package fleet

import (
	"math/rand"
	"strings"

	"hercules/internal/telemetry"
)

// Names of the built-in routing policies. A router is selected by its
// routerTable name (Spec.Router, ParseRouter, NewRouter); these
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
// order; RouterNames() lists the same set sorted.
var AllRouters = []string{RoundRobin, LeastOutstanding, PowerOfTwo, WeightedHetero}

// routerAliases maps accepted long spellings to table names.
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
// aliases of the built-ins) and validates it against routerTable,
// returning the canonical table name. The error on an unknown name
// lists every router in the table.
func ParseRouter(s string) (string, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if canon, ok := routerAliases[name]; ok {
		name = canon
	}
	if _, err := routerTable.lookup(name); err != nil {
		return "", err
	}
	return name, nil
}

// Router picks a destination among a model's instances for each query.
// Implementations may keep per-pool state (e.g. a round-robin cursor)
// and are not safe for concurrent use: the engine instantiates a fresh
// Router per pool replay through its routerTable factory.
//
// Each router keeps its decision in PickTraced alone, and its Pick is
// PickTraced with a nil event. The engine routes every query through
// PickTraced, passing an event only for queries in the trace sample, so
// recording costs one nil test on the untraced path. A traced replay is
// byte-identical to an untraced one because candidate recording reads
// only instance IDs; TestTracedRoutersMatchUntraced pins this per
// router.
type Router interface {
	Name() string
	// Pick returns the index of the chosen instance. The slice is
	// non-empty and all instances serve the query's model.
	Pick(insts []*Instance, now float64, rng *rand.Rand) int
	// PickTraced is Pick plus recording the inspected candidates into
	// the route event's Cand and NCand fields (a nil ev records
	// nothing).
	PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int
}

// recordCand records in as a route event's j-th candidate, with NCand
// counting it; a nil event records nothing.
func recordCand(ev *telemetry.Event, j int, in *Instance) {
	if ev == nil {
		return
	}
	ev.Cand[j] = int32(in.ID)
	ev.NCand = uint8(j + 1)
}

// recordScan fills a route event's candidate fields for a full-scan
// router: the first MaxCandidates instance IDs, with NCand reporting
// the total considered (saturating at 255). A nil event records
// nothing.
func recordScan(insts []*Instance, ev *telemetry.Event) {
	if ev == nil {
		return
	}
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
	return r.PickTraced(insts, now, rng, nil)
}

// PickTraced implements Router: round robin considers exactly
// the instance the cursor lands on.
func (r *roundRobin) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	i := r.next % len(insts)
	r.next++
	recordCand(ev, 0, insts[i])
	return i
}

type leastOutstanding struct{}

func (leastOutstanding) Name() string { return LeastOutstanding }

func (r leastOutstanding) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	return r.PickTraced(insts, now, rng, nil)
}

// PickTraced implements Router. Candidate recording reads only
// instance IDs, so the Outstanding scan happens exactly as untraced.
// Most probes hit Outstanding's cached fast path, a compare and a
// load; only an instance whose next completion or batch launch is
// due by now takes the slow path, which retires and launches what is
// due. A probe's effect depends only on the instance's state and now,
// so the scan order cannot change the replay.
func (leastOutstanding) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	recordScan(insts, ev)
	best, bestOut := 0, insts[0].Outstanding(now)
	for i := 1; i < len(insts); i++ {
		if out := insts[i].Outstanding(now); out < bestOut {
			best, bestOut = i, out
		}
	}
	return best
}

type powerOfTwo struct{}

func (powerOfTwo) Name() string { return PowerOfTwo }

func (r powerOfTwo) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	return r.PickTraced(insts, now, rng, nil)
}

// PickTraced implements Router: two RNG draws, both sampled
// candidates recorded, and Outstanding inspected j before i.
func (powerOfTwo) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	n := len(insts)
	if n == 1 {
		recordCand(ev, 0, insts[0])
		return 0
	}
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	recordCand(ev, 0, insts[i])
	recordCand(ev, 1, insts[j])
	if insts[j].Outstanding(now) < insts[i].Outstanding(now) {
		return j
	}
	return i
}

type weightedHetero struct{}

func (weightedHetero) Name() string { return WeightedHetero }

func (r weightedHetero) Pick(insts []*Instance, now float64, rng *rand.Rand) int {
	return r.PickTraced(insts, now, rng, nil)
}

// PickTraced implements Router. Like leastOutstanding's scan,
// it probes each instance through the cached fast path (see
// heteroLoad), so the scan is a compare and a load per instance until
// something is due.
func (weightedHetero) PickTraced(insts []*Instance, now float64, rng *rand.Rand, ev *telemetry.Event) int {
	recordScan(insts, ev)
	best, bestLoad := 0, heteroLoad(insts[0], now)
	for i := 1; i < len(insts); i++ {
		if l := heteroLoad(insts[i], now); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// heteroLoad is the capacity-normalized congestion of an instance,
// (Outstanding+1)/Weight: how many "capacity units" the next query
// would wait behind (Outstanding counts a forming batch's members too,
// so a batching instance's queued-but-undispatched work is visible to
// every state-aware policy). Instances without a positive profiled
// weight fall back to weight 1. The instance caches the key with its
// outstanding count, so a probe that is not due reads it without a
// division, exactly as Outstanding reads the count.
func heteroLoad(in *Instance, now float64) float64 {
	if in.due(now) {
		in.advance(now)
	}
	return in.load
}
