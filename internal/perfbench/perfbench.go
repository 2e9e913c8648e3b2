package perfbench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Schema is the report format version; bump on incompatible changes.
const Schema = 1

// Stat summarizes one metric across a benchmark's repetitions.
type Stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// add folds one observation into the stat (n is the prior count).
func (s Stat) add(x float64, n int) Stat {
	if n == 0 {
		return Stat{Mean: x, Min: x, Max: x}
	}
	s.Mean = (s.Mean*float64(n) + x) / float64(n+1)
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
	return s
}

// Bench is one benchmark aggregated over its repetitions. Metrics is
// keyed by unit exactly as `go test` prints it ("ns/op", "B/op",
// "allocs/op", plus every b.ReportMetric counter), and by derived
// throughput names such as "queries_per_sec".
type Bench struct {
	Name    string          `json:"name"`
	Reps    int             `json:"reps"`
	Metrics map[string]Stat `json:"metrics"`
}

// Report is the machine-readable result of one harness run.
type Report struct {
	Schema      int     `json:"schema"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPUs        int     `json:"cpus"`
	GeneratedAt string  `json:"generated_at,omitempty"`
	Command     string  `json:"command,omitempty"`
	Benchmarks  []Bench `json:"benchmarks"`
}

// Find returns the named benchmark, or nil.
func (r *Report) Find(name string) *Bench {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// rawResult is one parsed benchmark output line (one repetition).
type rawResult struct {
	Name    string
	Iters   int
	Metrics map[string]float64
}

// Parse reads `go test -bench` output and returns every benchmark
// result in order (one entry per repetition when -count > 1).
//
// Two line shapes occur in real output. A quiet benchmark puts name and
// metrics on one line:
//
//	BenchmarkFleetDay-8  3  699349304 ns/op  960277 queries  ...
//
// A benchmark that prints (ours render their experiment tables) splits
// them — go test emits the name, the benchmark's own output interleaves,
// and the metrics arrive on a later line of their own:
//
//	BenchmarkFleetDay 	fleet day: 960277 queries, 0.0 violation min
//	       3	 699349304 ns/op	 960277 queries	 ...
//
// so a bare "Benchmark..." prefix arms a pending name that the next
// parsable metrics line resolves. Everything else (experiment tables,
// PASS/ok trailers) is ignored.
func Parse(r io.Reader) ([]rawResult, error) {
	var out []rawResult
	pending := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") && len(f[0]) > len("Benchmark") {
			if raw, ok := parseResult(f[0], f[1:]); ok {
				out = append(out, raw)
				pending = ""
			} else {
				pending = f[0]
			}
			continue
		}
		if pending == "" {
			continue
		}
		if raw, ok := parseResult(pending, f); ok {
			out = append(out, raw)
			pending = ""
		}
	}
	return out, sc.Err()
}

// parseResult parses the metrics fields of one result — the iteration
// count followed by value/unit pairs — for the named benchmark. The -N
// GOMAXPROCS suffix is stripped from the name so reports compare across
// machines.
func parseResult(name string, f []string) (rawResult, bool) {
	if len(f) < 3 || len(f)%2 == 0 {
		return rawResult{}, false
	}
	iters, err := strconv.Atoi(f[0])
	if err != nil {
		return rawResult{}, false
	}
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	raw := rawResult{Name: name, Iters: iters, Metrics: make(map[string]float64, (len(f)-1)/2)}
	for i := 1; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return rawResult{}, false
		}
		raw.Metrics[f[i+1]] = v
	}
	if _, ok := raw.Metrics["ns/op"]; !ok {
		// Every genuine result line carries ns/op; this rejects
		// numeric-looking rows inside a benchmark's printed tables.
		return rawResult{}, false
	}
	return raw, true
}

// Aggregate groups repetitions by benchmark name (first-seen order)
// and summarizes every metric. When a repetition carries both "ns/op"
// and a "queries" counter, the derived "queries_per_sec" throughput is
// recorded alongside — the domain metric the fleet replay's perf
// trajectory is tracked by.
func Aggregate(raws []rawResult) []Bench {
	var order []string
	byName := make(map[string]*Bench)
	for _, raw := range raws {
		b := byName[raw.Name]
		if b == nil {
			b = &Bench{Name: raw.Name, Metrics: make(map[string]Stat)}
			byName[raw.Name] = b
			order = append(order, raw.Name)
		}
		if ns, ok := raw.Metrics["ns/op"]; ok && ns > 0 {
			if q, ok := raw.Metrics["queries"]; ok {
				raw.Metrics["queries_per_sec"] = q / (ns / 1e9)
			}
		}
		for unit, v := range raw.Metrics {
			b.Metrics[unit] = b.Metrics[unit].add(v, b.Reps)
		}
		b.Reps++
	}
	out := make([]Bench, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// NewReport wraps aggregated benchmarks with run provenance, stamped
// with the current wall clock. Code that needs a reproducible report
// (tests, replayed tooling) should call ReportAt with an explicit
// timestamp instead.
func NewReport(benches []Bench, command string) *Report {
	return ReportAt(time.Now(), benches, command) //lint:allow wallclock report provenance timestamp, not replay state
}

// ReportAt is NewReport with the generation time injected by the
// caller — the deterministic entry point.
func ReportAt(t time.Time, benches []Bench, command string) *Report {
	return &Report{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(), //lint:allow wallclock report provenance: the host the numbers came from
		GeneratedAt: t.UTC().Format(time.RFC3339),
		Command:     command,
		Benchmarks:  benches,
	}
}

// RunConfig describes one harness invocation of the benchmark suite.
type RunConfig struct {
	Pkg       string // package to bench (default ".")
	Bench     string // -bench regexp (default "BenchmarkFleetDay")
	BenchTime string // -benchtime (default "1x")
	Count     int    // -count repetitions (default 3)
	Timeout   string // go test -timeout (default "30m")
	Stdout    io.Writer
}

func (c *RunConfig) defaults() {
	if c.Pkg == "" {
		c.Pkg = "."
	}
	if c.Bench == "" {
		c.Bench = "BenchmarkFleetDay"
	}
	if c.BenchTime == "" {
		c.BenchTime = "1x"
	}
	if c.Count <= 0 {
		c.Count = 3
	}
	if c.Timeout == "" {
		c.Timeout = "30m"
	}
}

// Run executes the configured `go test -bench` subprocess, streams its
// output to cfg.Stdout (when set), and returns the aggregated report.
func Run(cfg RunConfig) (*Report, error) {
	cfg.defaults()
	args := []string{"test", "-run", "^$",
		"-bench", cfg.Bench,
		"-benchtime", cfg.BenchTime,
		"-count", strconv.Itoa(cfg.Count),
		"-benchmem",
		"-timeout", cfg.Timeout,
		cfg.Pkg,
	}
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if cfg.Stdout != nil {
		cfg.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("perfbench: go %s: %w", strings.Join(args, " "), err)
	}
	raws, err := Parse(strings.NewReader(string(out)))
	if err != nil {
		return nil, fmt.Errorf("perfbench: parse: %w", err)
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("perfbench: no benchmark results matched -bench %s", cfg.Bench)
	}
	return NewReport(Aggregate(raws), "go "+strings.Join(args, " ")), nil
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a report written by WriteFile.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if r.Schema > Schema {
		return nil, fmt.Errorf("perfbench: %s: schema %d newer than supported %d", path, r.Schema, Schema)
	}
	return &r, nil
}
