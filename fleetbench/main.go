// Command fleetbench is the fleet-replay benchmark. It drives one named
// workload spec (workloads/*.json) through the public engine API —
// fleet.CalibrateTable, NewEngine or NewMultiEngine, Workloads, RunDay —
// and exports every replay's DayResult as JSON.
//
//	go run . -workload week-steady -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the traced pass instead: per-layer probes that call each layer's
// public entry point on inputs shaped by the workload, plus the spans
// of the benchmark's own steps, written to a JSON file when the run
// ends. Replays are offline batch work: each replays the spec's fixed
// day, whose simulated traffic is the engine's open-loop Poisson
// stream. Every replay's result is checked (see checkRun); a failed
// check counts the replay as failed.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"replay_qps": {"value": 4.1e6, "unit": "queries/s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"hercules/internal/fleet"
	"hercules/internal/profiler"
)

// coldCycles is how many times a run sets up from nothing: calibration,
// engine construction, then the first replay on that table's cold
// service grids. setup_s is the cycles' median.
const coldCycles = 5

// coldReplayBudget is the replay time the cold-grid samples behind
// first_replay_s add up to, at most maxColdReplays of them: after the
// cycles' replays, engines over a fresh SimService (empty grids) replay
// until it is spent. A single cold replay swings by ±15% on a shared
// host; the median of a dozen holds.
const (
	coldReplayBudget = 8 * time.Second
	maxColdReplays   = 15
)

// minIntervalSamples is the fewest interval gaps a run pools, so that
// interval_ms_p95 has at least ten samples beyond it.
const minIntervalSamples = 200

// minWarmReplays is the fewest warm replays behind a median.
const minWarmReplays = 3

// hardStop ends the measuring loops early, whatever the minimums say,
// so a run always exits well inside three minutes.
const hardStop = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload spec name (workloads/<name>.json)")
	seed := flag.Int64("seed", 1, "workload seed, written into options.seed")
	seconds := flag.Float64("seconds", 10, "how long the warm replays measure")
	trace := flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics and spans")
	flag.Parse()
	if *workload == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: fleetbench -workload {%v} -seed N -seconds S -trace {0,1}\n", workloadNames())
		os.Exit(2)
	}
	spec, err := loadSpec(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	b := &bench{spec: spec, seconds: time.Duration(*seconds * float64(time.Second)), begun: time.Now()}
	fmt.Printf("fleetbench: workload %s, seed %d, GOMAXPROCS %d of %d CPUs\n",
		*workload, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	var res result
	if *trace == 1 {
		b.spans = newSpanLog()
		res, err = b.traced()
		if err == nil {
			path := filepath.Join(".bench_build", "fleetbench", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
			err = b.spans.write(path, *workload, *seed)
			fmt.Printf("spans: %d written to %s\n", len(b.spans.spans), path)
		}
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	for _, p := range b.problems {
		fmt.Println("check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run of one workload.
type bench struct {
	spec    fleet.Spec
	seconds time.Duration
	begun   time.Time
	spans   *spanLog // nil outside the traced pass
	clock   intervalClock

	table     *profiler.Table
	ref       replayRun // the run's first replay, the checks' reference
	intervals int       // observer callbacks per replay
	attempted int
	failed    int
	problems  []string
}

// setUp runs one cold cycle: calibrate, build the engine, replay once
// on the fresh table's cold service grids. Any failure here aborts the
// run.
func (b *bench) setUp() (setup, calib, first time.Duration, d *day, err error) {
	start := time.Now()
	table, err := calibrate(b.spec)
	if err != nil {
		return
	}
	calibrated := time.Now()
	d, err = newDay(b.spec, table, &b.clock)
	if err != nil {
		return
	}
	built := time.Now()
	b.spans.add("calibrate", 0, start, calibrated)
	b.spans.add("engine_build", 0, calibrated, built)
	b.table = table
	r, ok := b.replay(d)
	if !ok {
		return 0, 0, 0, nil, fmt.Errorf("cold replay failed: %s", b.problems[len(b.problems)-1])
	}
	return built.Sub(start), calibrated.Sub(start), r.wall, d, nil
}

// replay runs one checked replay of d and counts it. The run's first
// replay becomes the reference every later export must match. ok is
// false when the replay errored, leaving nothing to time.
func (b *bench) replay(d *day) (r replayRun, ok bool) {
	r, err := replay(d, &b.clock, b.intervals, b.spans)
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
		return r, false
	}
	if b.attempted == 1 {
		b.ref = r
		b.intervals = len(r.gaps)
	}
	if bad := checkRun(r, b.ref.hash); len(bad) > 0 {
		b.failed++
		b.problems = append(b.problems, bad...)
	}
	return r, true
}

// rerun builds a fresh engine over the run's table (untimed), with any
// extra options, and replays it once.
func (b *bench) rerun(opts ...fleet.Option) (replayRun, bool) {
	d, err := newDay(b.spec, b.table, &b.clock, opts...)
	if err != nil {
		b.attempted++
		b.failed++
		b.problems = append(b.problems, err.Error())
		return replayRun{}, false
	}
	return b.replay(d)
}

// over reports whether a measuring loop may stop: its budget is spent
// and its minimums are met, or the run has hit its hard stop.
func (b *bench) over(since time.Time, budget time.Duration, done bool) bool {
	return (done && time.Since(since) >= budget) || time.Since(b.begun) >= hardStop
}

// endToEnd is the untraced pass: cold cycles, then warm replays for the
// run's seconds.
func (b *bench) endToEnd() (result, error) {
	var setup, first []float64
	var coldTime time.Duration
	for k := 0; k < coldCycles; k++ {
		s, _, f, _, err := b.setUp()
		if err != nil {
			return result{}, err
		}
		setup = append(setup, s.Seconds())
		first = append(first, f.Seconds())
		coldTime += f
	}
	for coldTime < coldReplayBudget && len(first) < maxColdReplays {
		r, ok := b.rerun(fleet.WithService(fleet.NewSimService(b.table)))
		if !ok {
			break // counted as failed; the warm loop below reports the run
		}
		first = append(first, r.wall.Seconds())
		coldTime += r.wall
	}
	// Calibration's transient heap peaks wherever the GC happens to run
	// (14-51 MB across identical runs); hand it back so the footprint
	// below is the replay's own.
	debug.FreeOSMemory()
	var qps, gapsMS []float64
	var alloc uint64
	var queries int
	var heldMB float64
	start := time.Now()
	for !b.over(start, b.seconds, len(qps) >= minWarmReplays && len(gapsMS) >= minIntervalSamples) {
		r, ok := b.rerun()
		if !ok {
			continue
		}
		qps = append(qps, float64(r.res.TotalQueries)/r.wall.Seconds())
		for _, g := range r.gaps {
			gapsMS = append(gapsMS, float64(g.Nanoseconds())/1e6)
		}
		alloc += r.alloc
		queries += r.res.TotalQueries
		heldMB = max(heldMB, r.heldMB)
	}
	if len(qps) == 0 {
		return result{}, fmt.Errorf("no warm replay succeeded")
	}
	m := map[string]metric{
		"replay_qps":            {median(qps), "queries/s"},
		"interval_ms_p50":       {quantile(gapsMS, 0.50), "ms"},
		"interval_ms_p95":       {quantile(gapsMS, 0.95), "ms"},
		"setup_s":               {median(setup), "s"},
		"first_replay_s":        {median(first), "s"},
		"alloc_bytes_per_query": {float64(alloc) / float64(queries), "B/query"},
		"peak_rss_mb":           {heldMB, "MB"},
	}
	b.report(m, len(qps), len(gapsMS))
	fmt.Printf("%-24s %14.6g %s (%d of %d replays)\n", "failed_frac",
		float64(b.failed)/float64(b.attempted), "ratio", b.failed, b.attempted)
	return b.result(m), nil
}

// traced is the traced pass: one cold cycle with spans, the layer
// probes, then warm replays alternating untraced and traced, and
// replays at GOMAXPROCS=1 for the core-scaling rows.
func (b *bench) traced() (result, error) {
	m := make(map[string]metric)
	_, calib, _, d, err := b.setUp()
	if err != nil {
		return result{}, err
	}
	m["profiler.calibrate_s"] = metric{calib.Seconds(), "s"}

	var builds []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		if _, err := newDay(b.spec, b.table, &b.clock); err != nil {
			return result{}, err
		}
		end := time.Now()
		b.spans.add("probe.fleet.engine_build", 0, start, end)
		builds = append(builds, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	m["fleet.engine_build_ms"] = metric{median(builds), "ms"}

	in, err := newProbeInputs(b.spec, b.table, d.ws)
	if err != nil {
		return result{}, err
	}
	if err := in.run(m, b.spans); err != nil {
		return result{}, err
	}

	// Warm replays: untraced ones (no spans) against traced ones.
	spans := b.spans
	var plain, traced, exportMS, reprovMS, steadyMS, allMS, nsPerQuery []float64
	var mallocs uint64
	var callbacks int
	gc0, cpu0 := gcCPU()
	start := time.Now()
	for !b.over(start, b.seconds/2, len(traced) >= 2) {
		for _, on := range []bool{false, true} {
			b.spans = nil
			if on {
				b.spans = spans
			}
			r, ok := b.rerun()
			if !ok {
				continue
			}
			mallocs += r.mallocs
			callbacks += len(r.gaps)
			q := float64(r.res.TotalQueries) / r.wall.Seconds()
			if !on {
				plain = append(plain, q)
				continue
			}
			traced = append(traced, q)
			exportMS = append(exportMS, float64(r.export.Nanoseconds())/1e6)
			for k, st := range intervalSteps(r.res) {
				ms := float64(r.gaps[k].Nanoseconds()) / 1e6
				allMS = append(allMS, ms)
				if st.Reprovisioned {
					reprovMS = append(reprovMS, ms)
				} else {
					steadyMS = append(steadyMS, ms)
				}
				if st.Queries > 0 {
					nsPerQuery = append(nsPerQuery, ms*1e6/float64(st.Queries))
				}
			}
		}
	}
	b.spans = spans
	gc1, cpu1 := gcCPU()
	if len(plain) == 0 || len(traced) == 0 {
		return result{}, fmt.Errorf("no warm replay succeeded")
	}
	if len(steadyMS) == 0 {
		fmt.Println("note: every interval re-provisions; fleet.interval_ms.steady_p50 reports the all-interval median")
		steadyMS = allMS
	}
	m["fleet.interval_ms.reprov_p50"] = metric{median(reprovMS), "ms"}
	m["fleet.interval_ms.steady_p50"] = metric{median(steadyMS), "ms"}
	m["fleet.ns_per_query"] = metric{median(nsPerQuery), "ns"}
	m["fleet.export_ms"] = metric{median(exportMS), "ms"}
	m["runtime.allocs_per_interval"] = metric{float64(mallocs) / float64(max(callbacks, 1)), "count"}
	m["runtime.gc_cpu_frac"] = metric{(gc1 - gc0) / max(cpu1-cpu0, 1e-9), "ratio"}
	m["bench.trace_overhead_frac"] = metric{1 - median(traced)/median(plain), "ratio"}

	// Core scaling: the same replay with one P.
	procs := runtime.GOMAXPROCS(1)
	var one []float64
	start = time.Now()
	for !b.over(start, b.seconds/4, len(one) >= 2) {
		if r, ok := b.rerun(); ok {
			one = append(one, float64(r.res.TotalQueries)/r.wall.Seconds())
		}
	}
	runtime.GOMAXPROCS(procs)
	if len(one) == 0 {
		return result{}, fmt.Errorf("no single-core replay succeeded")
	}
	m["scaling.replay_qps_1p"] = metric{median(one), "queries/s"}
	m["scaling.speedup"] = metric{median(plain) / median(one), "ratio"}

	b.report(m, len(traced), len(allMS))
	return b.result(m), nil
}

// report prints the metrics and the reference replay's output checks.
func (b *bench) report(m map[string]metric, replays, samples int) {
	fmt.Printf("warm replays %d, interval samples %d, queries per replay %d\n", replays, samples, b.ref.res.TotalQueries)
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-32s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	for _, c := range outputChecks(b.ref) {
		fmt.Printf("check %-26s %v\n", c[0], c[1])
	}
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
