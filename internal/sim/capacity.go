package sim

import (
	"math"

	"hercules/internal/stats"
	"hercules/internal/workload"
)

// Capacity is the latency-bounded throughput of one configuration: the
// highest sustained arrival rate whose tail latency meets the SLA.
type Capacity struct {
	QPS float64
	// At is the measurement at the capacity operating point.
	At Result
}

// capacitySearch tuning: the bracket doubles from minRate until the SLA
// breaks, then bisects. Windows adapt so every evaluation sees enough
// queries for a stable tail estimate.
const (
	minRate       = 4.0
	maxRate       = 4 << 20
	bisectRounds  = 7
	targetQueries = 1400
	minWindowS    = 3.0
	maxWindowS    = 60.0
)

// evalWindow returns the simulation window for a given offered rate.
func evalWindow(rate float64) float64 {
	w := targetQueries / rate
	if w < minWindowS {
		return minWindowS
	}
	if w > maxWindowS {
		return maxWindowS
	}
	return w
}

// Evaluate runs one simulation at the given offered QPS and reports the
// result (seeded deterministically).
func (s *Server) Evaluate(cfg Config, rateQPS float64, seed int64) (Result, error) {
	return s.evaluate(cfg, rateQPS, seed, &evalScratch{memo: make(costMemo)})
}

// evaluate is Evaluate simulating with sc.
func (s *Server) evaluate(cfg Config, rateQPS float64, seed int64, sc *evalScratch) (Result, error) {
	window := evalWindow(rateQPS)
	gen := workload.NewGenerator(s.Model, rateQPS, seed)
	// Poisson arrivals: the mean plus four standard deviations holds
	// the stream without regrowing the buffer.
	mean := rateQPS * window
	queries := gen.AppendUntil(make([]workload.Query, 0, int(mean+4*math.Sqrt(mean))+1), window)
	if len(queries) == 0 {
		return Result{}, nil
	}
	return s.simulate(cfg, queries, window, sc)
}

// FindCapacity measures the latency-bounded throughput of the
// configuration under the SLA tail-latency target (milliseconds). The
// returned capacity is 0 when even trivial load violates the SLA.
func (s *Server) FindCapacity(cfg Config, slaMS float64, seed int64) (Capacity, error) {
	return s.FindCapacityHint(cfg, slaMS, seed, 0)
}

// FindCapacityHint is FindCapacity with a warm-start bracket around
// hintQPS (e.g. a neighbouring configuration's capacity), which saves
// most of the doubling phase during scheduler searches. hintQPS ≤ 0
// falls back to the cold bracket.
func (s *Server) FindCapacityHint(cfg Config, slaMS float64, seed int64, hintQPS float64) (Capacity, error) {
	if err := cfg.Validate(s.HW); err != nil {
		return Capacity{}, err
	}
	// Every evaluation of the search simulates the same Config, so they
	// share one cost memo, Selector and latency buffer.
	sc := &evalScratch{memo: make(costMemo), sel: new(stats.Selector)}
	feasible := func(rate float64) (bool, Result) {
		res, err := s.evaluate(cfg, rate, seed, sc)
		if err != nil || res.Queries == 0 {
			return false, res
		}
		return res.TailMS <= slaMS && !math.IsInf(res.TailMS, 0), res
	}

	lo := minRate
	if hintQPS > minRate {
		// Walk down from the hint until feasible (usually 0–2 steps).
		start := hintQPS / 2
		for start > minRate {
			if ok, _ := feasible(start); ok {
				lo = start
				break
			}
			start /= 4
		}
	}
	ok, lowRes := feasible(lo)
	if !ok {
		if lo == minRate {
			return Capacity{}, nil
		}
		ok, lowRes = feasible(minRate)
		if !ok {
			return Capacity{}, nil
		}
		lo = minRate
	}
	hi := lo * 2
	for hi <= maxRate {
		good, res := feasible(hi)
		if !good {
			break
		}
		lo, lowRes = hi, res
		hi *= 2
	}
	if hi > maxRate {
		return Capacity{QPS: lo, At: lowRes}, nil
	}
	for i := 0; i < bisectRounds; i++ {
		mid := (lo + hi) / 2
		good, res := feasible(mid)
		if good {
			lo, lowRes = mid, res
		} else {
			hi = mid
		}
	}
	return Capacity{QPS: lo, At: lowRes}, nil
}
