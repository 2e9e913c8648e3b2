package stats

import "math"

// Sketch is a mergeable streaming quantile sketch with a guaranteed
// relative-error bound (DDSketch-style: logarithmically-spaced buckets
// of width controlled by the accuracy parameter alpha). Adding a value
// is O(1), memory is proportional to the dynamic range of the observed
// values (not the sample count), and two sketches built from disjoint
// streams merge by bucket-wise addition into exactly the sketch of the
// concatenated stream — merge order cannot change the answer, which is
// what lets the fleet replay's concurrent model tasks keep their
// byte-identity guarantee while tracking tails without buffering
// samples.
//
// Quantile(p) returns a value within relative error Alpha of an exact
// sample quantile: if x is the true p-th percentile of the observed
// stream, the estimate q satisfies |q - x| <= Alpha * x. Values below
// sketchMinValue (including zero and negatives, which latencies never
// produce but defensive callers might) collapse into a dedicated zero
// bucket that reports as 0.
//
// The zero value is not usable; construct with NewSketch. A Sketch is
// not safe for concurrent use.
type Sketch struct {
	// Alpha is the relative-error bound of Quantile (read-only after
	// construction).
	Alpha float64

	gamma   float64 // (1+alpha)/(1-alpha)
	lnGamma float64
	offset  int      // bucket index of counts[0]
	counts  []uint32 // log-spaced bucket counts
	zero    uint64   // observations below sketchMinValue
	n       uint64
	sum     float64
}

// sketchMinValue is the smallest trackable positive value; anything
// smaller is indistinguishable from zero. 1e-9 covers sub-nanosecond
// latencies in any unit this repo uses (seconds or milliseconds).
const sketchMinValue = 1e-9

// DefaultSketchAlpha is the relative accuracy the telemetry histograms
// use: 1% error on any quantile, ~600 buckets across the full
// nanosecond-to-kilosecond latency range.
const DefaultSketchAlpha = 0.01

// NewSketch returns an empty sketch with the given relative accuracy
// (0 < alpha < 1; out-of-range values fall back to
// DefaultSketchAlpha).
func NewSketch(alpha float64) *Sketch {
	s := &Sketch{}
	s.Init(alpha)
	return s
}

// Init (re)initializes a sketch in place with the given accuracy,
// releasing any buckets. It exists so sketches embedded by value (the
// telemetry histograms) can be armed without allocation churn.
func (s *Sketch) Init(alpha float64) {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	s.Alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.lnGamma = math.Log(s.gamma)
	s.Reset()
}

// Reset discards all observations but keeps the bucket array (and the
// configured accuracy) for reuse.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.counts = s.counts[:0]
	s.offset = 0
	s.zero, s.n, s.sum = 0, 0, 0
}

// bucketIdx maps a positive value to its log-spaced bucket.
func (s *Sketch) bucketIdx(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// Add records one observation.
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records n identical observations.
func (s *Sketch) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	s.n += n
	s.sum += x * float64(n)
	if x < sketchMinValue {
		s.zero += n
		return
	}
	s.bump(s.bucketIdx(x), n)
}

// bump adds n to the bucket with absolute index idx, growing the
// bucket window as needed.
func (s *Sketch) bump(idx int, n uint64) {
	if len(s.counts) == 0 {
		s.offset = idx
		s.counts = append(s.counts, 0)
	}
	for idx < s.offset {
		// Grow downward: shift is rare (only when a new minimum extends
		// the range) and the window stays as tight as the data.
		grow := s.offset - idx
		if cap(s.counts)-len(s.counts) < grow {
			nc := make([]uint32, len(s.counts)+grow, 2*(len(s.counts)+grow))
			copy(nc[grow:], s.counts)
			s.counts = nc
		} else {
			s.counts = s.counts[:len(s.counts)+grow]
			copy(s.counts[grow:], s.counts[:len(s.counts)-grow])
			for i := 0; i < grow; i++ {
				s.counts[i] = 0
			}
		}
		s.offset = idx
	}
	for idx >= s.offset+len(s.counts) {
		s.counts = append(s.counts, 0)
	}
	c := &s.counts[idx-s.offset]
	if *c == math.MaxUint32 {
		// Saturate rather than wrap; 4G observations in one bucket is
		// beyond any replay this repo runs.
		return
	}
	if n > uint64(math.MaxUint32-*c) {
		*c = math.MaxUint32
		return
	}
	*c += uint32(n)
}

// Merge folds another sketch (of the same accuracy) into s: the result
// is exactly the sketch of both streams concatenated, regardless of
// merge order. Merging sketches of different accuracies re-buckets the
// other sketch's representative values into s's grid, which keeps
// correctness but degrades the bound to the coarser alpha.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	s.n += o.n
	s.sum += o.sum
	s.zero += o.zero
	sameGrid := o.gamma == s.gamma
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		idx := o.offset + i
		if !sameGrid {
			idx = s.bucketIdx(o.value(idx))
		}
		s.bump(idx, uint64(c))
	}
}

// value returns the representative value of the bucket with absolute
// index idx: the geometric midpoint 2·gamma^idx/(gamma+1), which is
// within Alpha of every value the bucket can hold.
func (s *Sketch) value(idx int) float64 {
	return 2 * math.Exp(float64(idx)*s.lnGamma) / (s.gamma + 1)
}

// Count returns the number of observations.
func (s *Sketch) Count() int { return int(s.n) }

// Sum returns the sum of all observations (exact, not bucketed).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Quantile returns the p-th percentile (p in [0, 100], matching
// Sample.Percentile and PercentileSelect) within relative error Alpha.
// Returns 0 for an empty sketch.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(Clamp(p, 0, 100) / 100 * float64(s.n-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += uint64(c)
		if cum > rank {
			return s.value(s.offset + i)
		}
	}
	// Unreachable when counts are consistent; fall back to the largest
	// occupied bucket.
	for i := len(s.counts) - 1; i >= 0; i-- {
		if s.counts[i] > 0 {
			return s.value(s.offset + i)
		}
	}
	return 0
}

// Buckets returns the number of occupied log-spaced buckets — the
// sketch's memory footprint in 4-byte units, useful for asserting the
// "memory scales with dynamic range, not samples" property.
func (s *Sketch) Buckets() int {
	n := 0
	for _, c := range s.counts {
		if c > 0 {
			n++
		}
	}
	return n
}
