package fleet

import (
	"fmt"
	"math"
	"testing"

	"hercules/internal/stats"
	"hercules/internal/workload"
)

// mmcnTheory returns the M/M/c/N closed forms (N = c+K, service rate
// 1, offered load a = cρ): the blocking probability p_N, which by PASTA
// is the fraction of arrivals dropped, and the mean sojourn L/λ_eff of
// the admitted queries (Little's law with λ_eff = λ(1 − p_N)).
func mmcnTheory(c, k int, rho float64) (block, sojourn float64) {
	a := float64(c) * rho
	n := c + k
	p := make([]float64, n+1)
	p[0] = 1
	sum := 1.0
	for i := 1; i <= n; i++ {
		p[i] = p[i-1] * a / float64(min(i, c))
		sum += p[i]
	}
	var l float64
	for i := range p {
		p[i] /= sum
		l += float64(i) * p[i]
	}
	return p[n], l / (a * (1 - p[n]))
}

// mg1Sojourn is the Pollaczek–Khinchine mean sojourn of an M/G/1
// queue with arrival rate λ and service moments E[S], E[S²]:
// E[S] + λE[S²]/(2(1−ρ)) with ρ = λE[S].
func mg1Sojourn(lambda, es, es2 float64) float64 {
	return es + lambda*es2/(2*(1-lambda*es))
}

// batchHalfWidth is the batch-means confidence half-width z·s/√B of
// the per-batch estimates xs.
func batchHalfWidth(xs []float64, z float64) float64 {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return z * math.Sqrt(ss/float64(len(xs)-1)/float64(len(xs)))
}

// TestQueueingOracleMMcK checks the bounded queue against queueing
// theory. Each cell is one Instance with c channels and K waiting slots
// whose service times are seeded exponentials (rate 1), fed seeded
// Poisson arrivals at rate cρ through ReplaySlice. The replay's drop
// fraction must match the M/M/c/(c+K) blocking probability, and the
// mean of its LatS the mean sojourn L/λ_eff. One M/G/1 cell instead
// draws lognormal service (mean 1, σ = 1) into a queue deep enough
// that the replay drops nothing, and its mean LatS must match the
// Pollaczek–Khinchine sojourn.
//
// Each bound is a batch-means confidence interval: the arrivals split
// into B consecutive batches, and the estimate may sit at most z
// standard errors of the batch means from theory (z = 4.5 is a
// two-sided level near 1e-4 under Student's t with B−1 = 31 degrees of
// freedom). The batches only size the interval; the estimates are the
// replay's own Dropped and LatS, so a drop the replay fails to count
// moves the estimate, not the interval.
func TestQueueingOracleMMcK(t *testing.T) {
	const (
		arrivals = 1 << 19
		batches  = 32
		z        = 4.5
	)
	cells := []struct {
		c, k int
		rho  float64
		// sigma > 0 draws lognormal service with mean 1 and this σ
		// (an M/G/1 cell); 0 draws exponential service.
		sigma float64
	}{{1, 0, 0.5, 0}, {1, 4, 0.8, 0}, {4, 4, 0.9, 0}, {8, 16, 0.95, 0}, {2, 2, 1.3, 0}, {1, 1 << 12, 0.7, 1}}
	for ci, cell := range cells {
		name := fmt.Sprintf("c%d_K%d_rho%g", cell.c, cell.k, cell.rho)
		if cell.sigma > 0 {
			name += fmt.Sprintf("_lognormal%g", cell.sigma)
		}
		t.Run(name, func(t *testing.T) {
			lambda := float64(cell.c) * cell.rho
			arr := stats.NewRand(int64(101 + ci))
			queries := make([]workload.Query, arrivals)
			now := 0.0
			for i := range queries {
				now += arr.ExpFloat64() / lambda
				// Size carries the arrival index so the service
				// function can log which arrivals were admitted.
				queries[i] = workload.Query{ID: int64(i), ArrivalS: now, Size: i, SparseScale: 1}
			}
			svcRng := stats.NewRand(int64(201 + ci))
			admitted := make([]int, 0, arrivals)
			// exp(μ + σN) with μ = −σ²/2 has mean 1 and E[S²] = exp(σ²).
			mu := -cell.sigma * cell.sigma / 2
			svc := func(size int, _ float64) float64 {
				admitted = append(admitted, size)
				if cell.sigma > 0 {
					return math.Exp(mu + cell.sigma*svcRng.NormFloat64())
				}
				return svcRng.ExpFloat64()
			}
			insts := []*Instance{NewInstance(0, "T", "M", float64(cell.c), cell.c, cell.k, svc)}
			res := ReplaySlice(LeastOutstanding, insts, queries, 7)
			if len(res.LatS) != len(admitted) {
				t.Fatalf("%d arrivals drew service, the replay reports %d latencies", len(admitted), len(res.LatS))
			}
			if res.Served != len(res.LatS) || res.Dropped != arrivals-len(res.LatS) {
				t.Errorf("accounting: served %d, dropped %d; %d of %d arrivals were served",
					res.Served, res.Dropped, len(res.LatS), arrivals)
			}

			// Per-batch drop fractions and mean sojourns. The pool is
			// unbatched, so LatS is in arrival order of the admitted
			// queries: LatS[j] belongs to arrival admitted[j].
			per := arrivals / batches
			dropB := make([]float64, batches)
			sojB := make([]float64, batches)
			servedB := make([]int, batches)
			for j, i := range admitted {
				b := i / per
				servedB[b]++
				sojB[b] += res.LatS[j]
			}
			for b := range dropB {
				dropB[b] = 1 - float64(servedB[b])/float64(per)
				sojB[b] /= float64(servedB[b])
			}

			block, sojourn := mmcnTheory(cell.c, cell.k, cell.rho)
			if cell.sigma > 0 {
				if res.Dropped != 0 {
					t.Fatalf("M/G/1 cell dropped %d queries; K = %d should hold every arrival", res.Dropped, cell.k)
				}
				block, sojourn = 0, mg1Sojourn(lambda, 1, math.Exp(cell.sigma*cell.sigma))
			}
			drop := float64(res.Dropped) / arrivals
			var sum float64
			for _, l := range res.LatS {
				sum += l
			}
			mean := sum / float64(len(res.LatS))
			hwDrop, hwSoj := batchHalfWidth(dropB, z), batchHalfWidth(sojB, z)
			if math.Abs(drop-block) > hwDrop {
				t.Errorf("drop fraction %.5f, blocking probability %.5f: off by %.5f, bound %.5f",
					drop, block, drop-block, hwDrop)
			}
			if math.Abs(mean-sojourn) > hwSoj {
				t.Errorf("mean sojourn %.5f, L/λ_eff %.5f: off by %.3f%%, bound %.3f%%",
					mean, sojourn, 100*(mean-sojourn)/sojourn, 100*hwSoj/sojourn)
			}
			t.Logf("drop %.5f vs %.5f (±%.5f), sojourn %.5f vs %.5f (±%.3f%%)",
				drop, block, hwDrop, mean, sojourn, 100*hwSoj/sojourn)
		})
	}
}
