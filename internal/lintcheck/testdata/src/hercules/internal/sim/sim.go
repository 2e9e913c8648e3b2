// Package sim is the wallclock fixture: it sits on a replay-path
// import path, so wall-clock reads, global RNG draws and host core
// counts are flagged while explicit seeded sources stay legal.
package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"time"
)

func step() time.Duration {
	start := time.Now()      // want "time\\.Now reads the wall clock"
	_ = rand.Intn(10)        // want "math/rand\\.Intn draws from the process-global RNG"
	_ = randv2.IntN(10)      // want "math/rand/v2\\.IntN draws from the process-global RNG"
	return time.Since(start) // want "time\\.Since reads the wall clock"
}

func seeded() float64 {
	r := rand.New(rand.NewSource(42)) // explicit seeded source: legal
	return r.Float64()
}

func seededV2() uint64 {
	r := randv2.New(randv2.NewPCG(1, 2)) // explicit seeded source: legal
	return r.Uint64()
}

func virtual(interval int, sliceS float64) float64 {
	return float64(interval) * sliceS // virtual time: legal
}

func shards() int {
	n := runtime.NumCPU()            // want "runtime\\.NumCPU reads the host's core count"
	return n + runtime.GOMAXPROCS(0) // want "runtime\\.GOMAXPROCS reads the host's core count"
}

func workers() int {
	//lint:allow wallclock fixture: sizes a worker pool whose count never reaches a result
	return runtime.GOMAXPROCS(0)
}

func version() string {
	return runtime.Version() // other runtime functions stay legal
}

func provenance() time.Time {
	return time.Now() //lint:allow wallclock fixture: provenance stamp outside the replay
}
