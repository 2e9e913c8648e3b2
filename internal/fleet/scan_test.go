package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"hercules/internal/workload"
)

// scanPool builds an n-instance pool shaped like a heterogeneous
// flash-crowd pool: two of every three instances batch (cap 16, 2 ms
// window, pure coalescing), and base speed, concurrency, queue depth
// and router weight all vary across the pool. Service scales with the
// query's size and sparse scale, so the replay exercises the full
// retire/launch logic the state-aware routers probe. It also returns
// the pool's nominal capacity (the sum of the weights, in QPS).
func scanPool(n int) ([]*Instance, float64) {
	insts := make([]*Instance, n)
	var capQPS float64
	for i := range insts {
		base := 0.002 * (1 + 0.5*float64(i%5))
		conc := 1 + i%4
		svc := func(size int, scale float64) float64 {
			return base * (0.4 + 0.6*float64(size)/110*scale)
		}
		// Pure coalescing gains nothing, so a batched instance's
		// capacity is one channel's worth; weights are off by up to
		// ±30%, as profiled capacities are.
		batched := i%3 != 0
		chans := conc
		if batched {
			chans = 1
		}
		weight := float64(chans) / (1.2 * base) * (0.7 + 0.1*float64(i%7))
		in := NewInstance(i, "T", "DLRM-RMC1", weight, conc, 2+(5*i)%7, svc)
		if batched {
			in.EnableBatching(16, 0.002, nil)
		}
		insts[i] = in
		capQPS += weight
	}
	return insts, capQPS
}

// scanQueries is scanPool's offered stream: Poisson arrivals at 0.8 of
// the pool's nominal capacity for horizonS seconds.
func scanQueries(capQPS, horizonS float64) []workload.Query {
	return poissonQueries(0.8*capQPS, horizonS, 29)
}

// goldenSlicePool is one router's replay of the 34-instance scan pool:
// the served and dropped counts and the sha256 of the latencies'
// IEEE-754 bits in emission order.
type goldenSlicePool struct {
	Router     string `json:"router"`
	Queries    int    `json:"queries"`
	Served     int    `json:"served"`
	Dropped    int    `json:"dropped"`
	LatSHA256  string `json:"lat_sha256"`
	LatSamples int    `json:"lat_samples"`
}

// TestGoldenSlicePools pins the state-aware routers' pool scan on a
// mixed batched/unbatched pool at the size of hetero-flash's peak pool:
// every probe of Instance.Outstanding can retire completions or launch
// a due batch, so any change to what a probe observes or does shows up
// in the latency stream. Regenerate with UPDATE_GOLDEN=1 go test
// ./internal/fleet -run TestGoldenSlicePools only when the replay
// semantics change deliberately.
func TestGoldenSlicePools(t *testing.T) {
	var got []goldenSlicePool
	for _, router := range []string{WeightedHetero, LeastOutstanding, PowerOfTwo} {
		insts, capQPS := scanPool(34)
		queries := scanQueries(capQPS, 1)
		res := ReplaySlice(router, insts, queries, 13)
		if res.Dropped == 0 {
			t.Errorf("%s: the golden pool must overflow somewhere", router)
		}
		h := sha256.New()
		var buf [8]byte
		for _, l := range res.LatS {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(l))
			h.Write(buf[:])
		}
		got = append(got, goldenSlicePool{router, len(queries), res.Served, res.Dropped,
			hex.EncodeToString(h.Sum(nil)), len(res.LatS)})
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	const path = "testdata/golden_slice_pools.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("mixed-pool slice replay diverged from the committed golden (UPDATE_GOLDEN=1 to regenerate after a deliberate change)\ngot:\n%s", data)
	}
}

// BenchmarkPick times the pool scan where the replay spends it: one
// ReplaySlice over scanPool per op, for each state-aware router and
// pool size (34 is hetero-flash's peak pool). ns/query is the per-query
// cost of route + arrive + batch dispatch, the layer fleetbench reports
// as fleet.slice_ns_per_query.
func BenchmarkPick(b *testing.B) {
	for _, router := range []string{WeightedHetero, LeastOutstanding, PowerOfTwo} {
		for _, n := range []int{8, 34, 96} {
			b.Run(fmt.Sprintf("%s/n=%d", router, n), func(b *testing.B) {
				insts, capQPS := scanPool(n)
				queries := scanQueries(capQPS, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ReplaySlice(router, insts, queries, 13)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
			})
		}
	}
}
