package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed step of the traced pass: a layer call made from
// the benchmark's own code. Parent 0 marks a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced pass's spans in memory until the run ends.
// A nil *spanLog is the untraced pass: every method is a no-op.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span that ran from start to end and returns its ID.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: start.Sub(l.origin).Nanoseconds(),
		EndNS:   end.Sub(l.origin).Nanoseconds(),
	})
	return id
}

// write saves the spans as one JSON document.
func (l *spanLog) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// timePer times pass in five blocks, each repeating it for at least
// minDur/5, and returns the median block's wall nanoseconds per unit of
// work, where each pass reports how many units it did. The median keeps
// a block that host interference slowed from moving the result.
func timePer(minDur time.Duration, pass func() int) float64 {
	blocks := make([]float64, 5)
	for i := range blocks {
		units := 0
		start := time.Now()
		for {
			units += pass()
			if el := time.Since(start); el >= minDur/5 {
				blocks[i] = float64(el.Nanoseconds()) / float64(max(units, 1))
				break
			}
		}
	}
	return median(blocks)
}
