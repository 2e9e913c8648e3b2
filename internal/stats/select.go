package stats

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Selector is the reusable scratch of the exact selection kernel: an
// MSD radix select over order-preserving uint64 keys of the float64
// bits. Level 0 makes one pass for the key range and one counting the
// samples into at most 2^11 buckets (fewer for small inputs); a prefix
// walk then locates every rank the requested percentiles need at once,
// and one pass gathers only the samples of the target buckets. A
// gathered bucket is sorted when small, read off when all-equal, and
// otherwise narrowed by another level. Each pass costs a few
// operations per sample and no unpredictable branch, where a
// partition-based select pays a data-dependent branch per element.
//
// Percentiles answers one query. Index and Query answer several over
// unions of the same segments — each window of a replay interval, each
// model's windows, all of them — sharing the range and counting passes:
// Index counts every segment into buckets of one geometry, and a Query
// sums its segments' counts and gathers only from them.
//
// The zero value is ready to use. Buffers grow to the largest request
// and are kept, so calls on a warmed Selector do not allocate. A
// Selector is not safe for concurrent use; PercentileSelect and
// PercentilesSelect draw one from a pool.
//
// Inputs must be NaN-free: a NaN has no place in the order and gets an
// arbitrary rank. ±Inf, subnormals and signed zeros are fine (-0 and +0
// compare equal, and either may be returned for the other, as a sort
// may leave them in either order).
type Selector struct {
	hist [1 << maxBucketBits]uint32 // one level's bucket counts, then region ids (0: none)

	// The indexed level 0: the segments, their smallest key, the
	// bucket geometry (nb 0 when there are no samples or all are one
	// value) and each segment's counts, nb apiece.
	segs    [][]float64
	lo      uint64
	shift   uint
	nb      int
	segHist []uint32

	buf   []float64 // gathered samples, a stack of regions
	ranks []int     // the distinct ranks the request needs, ascending
	vals  []float64 // the sample at each rank
	regs  []region  // a stack of target buckets awaiting resolution
}

// region is one target bucket's gathered samples, s.buf[start:end]
// (end is the gather cursor until the gather pass completes), holding
// the ranks s.ranks[r0:r1]; below samples order before it.
type region struct {
	start, end int
	r0, r1     int
	below      int
}

const (
	// maxBucketBits caps a histogram at 2^11 buckets (8 KB of counts,
	// L1-resident).
	maxBucketBits = 11
	bucketMask    = 1<<maxBucketBits - 1
	// sortCutoff is the region size at or below which sorting the
	// gathered samples beats another narrowing level.
	sortCutoff = 32
)

var selectors = sync.Pool{New: func() any { return new(Selector) }}

// PercentileSelect returns exactly what PercentileSorted would return
// on a sorted copy of xs — the same order statistics with the same
// closest-rank linear interpolation, bit for bit — in O(n) without
// sorting, via a pooled Selector. xs is read, not reordered, and must
// be NaN-free. Code that reads several points of one buffer should use
// PercentilesSelect; code that reads many should sort once and use
// PercentileSorted.
func PercentileSelect(xs []float64, p float64) float64 {
	var out [1]float64
	PercentilesSelect(xs, []float64{p}, out[:])
	return out[0]
}

// PercentilesSelect sets out[i] to PercentileSelect(xs, ps[i]) for
// every percentile in ps (any order, repeats allowed), finding all the
// order statistics they need in one selection. out must hold len(ps)
// values; xs is read, not reordered, and must be NaN-free.
func PercentilesSelect(xs, ps, out []float64) {
	s := selectors.Get().(*Selector)
	s.Percentiles([][]float64{xs}, ps, out)
	selectors.Put(s)
}

// Percentiles sets out[i] to the ps[i]-th percentile of the union of
// segs — exactly what PercentileSorted returns on a sorted copy of
// their concatenation — reading the segments in place. ps may be in
// any order and repeat; out must hold len(ps) values. The inputs must
// be NaN-free. An empty union yields 0 at every point. It ends any
// earlier Index.
func (s *Selector) Percentiles(segs [][]float64, ps, out []float64) {
	s.segs = nil
	s.index(segs)
	s.query(segs, 0, ps, out)
}

// Index readies s to Query unions of segs: one pass finds the key range
// of all their samples and one counts each segment into buckets of a
// shared geometry. segs is kept, not copied; the samples must not
// change until the Queries are done.
func (s *Selector) Index(segs [][]float64) {
	s.segs = segs
	s.index(segs)
}

// Query sets out[i] to the ps[i]-th percentile of the union of the
// indexed segments segs[from:to], as Percentiles would over them: it
// sums their counts, walks the sum and gathers from those segments
// only.
func (s *Selector) Query(from, to int, ps, out []float64) {
	s.query(s.segs[from:to], from, ps, out)
}

func (s *Selector) index(segs [][]float64) {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	n := 0
	for _, seg := range segs {
		lo, hi = keyRange(seg, lo, hi)
		n += len(seg)
	}
	s.lo, s.nb = lo, 0
	if lo >= hi {
		return // no samples, or every sample is one value
	}
	s.shift, s.nb = geometry(hi-lo, n/len(segs))
	size := len(segs) * s.nb
	s.segHist = slices.Grow(s.segHist[:0], size)[:size]
	clear(s.segHist)
	for i, seg := range segs {
		countKeys(s.segHist[i*s.nb:(i+1)*s.nb], seg, lo, s.shift)
	}
}

// query answers one Query over segs, the indexed segments from index
// from on.
func (s *Selector) query(segs [][]float64, from int, ps, out []float64) {
	if len(ps) == 0 {
		return
	}
	n := 0
	for _, seg := range segs {
		n += len(seg)
	}
	out = out[:len(ps)]
	if n == 0 {
		clear(out)
		return
	}
	s.ranks = s.ranks[:0]
	for _, p := range ps {
		lo, frac := closestRank(p, n)
		s.ranks = append(s.ranks, lo)
		if frac != 0 {
			s.ranks = append(s.ranks, lo+1)
		}
	}
	slices.Sort(s.ranks)
	s.ranks = slices.Compact(s.ranks)
	s.vals = slices.Grow(s.vals[:0], len(s.ranks))[:len(s.ranks)]
	if s.nb == 0 {
		s.fill(0, len(s.ranks), unkey(s.lo))
	} else {
		nb := s.nb
		hist := s.hist[:nb]
		copy(hist, s.segHist[from*nb:])
		for i := from + 1; i < from+len(segs); i++ {
			for b, c := range s.segHist[i*nb : (i+1)*nb] {
				hist[b] += c
			}
		}
		first := s.plan(hist, 0, 0, len(s.ranks))
		for _, seg := range segs {
			gather(&s.hist, seg, s.lo, s.shift, s.regs[first:], s.buf)
		}
		s.resolve(first)
	}
	for i, p := range ps {
		lo, frac := closestRank(p, n)
		j, _ := slices.BinarySearch(s.ranks, lo)
		v := s.vals[j]
		if frac != 0 {
			// lo+1 is also a needed rank, so it sits right after lo.
			v = v*(1-frac) + s.vals[j+1]*frac
		}
		out[i] = v
	}
}

// closestRank splits PercentileSorted's fractional rank of p over n ≥ 1
// samples into its floor and the interpolation weight of the next rank.
func closestRank(p float64, n int) (lo int, frac float64) {
	if n == 1 || p <= 0 {
		return 0, 0
	}
	if p >= 100 {
		return n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(rank)
	return lo, rank - float64(lo)
}

// key maps a float64 to a uint64 whose unsigned order is the float's
// numeric order: positives get the sign bit set, negatives are
// complemented.
func key(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// unkey inverts key.
func unkey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// geometry returns the shift that maps a key offset within span onto a
// bucket and the bucket count: about a quarter as many buckets as the m
// samples one histogram counts, at least 4 and at most 2^11.
func geometry(span uint64, m int) (shift uint, nb int) {
	b := min(max(bits.Len(uint(m))-2, 2), maxBucketBits)
	shift = uint(max(bits.Len64(span)-b, 0))
	return shift, int(span>>shift) + 1
}

// narrow resolves the ranks of one gathered region: sorted when small,
// filled when all-equal, otherwise split by one more radix level.
func (s *Selector) narrow(r region) {
	xs := s.buf[r.start:r.end]
	if len(xs) <= sortCutoff {
		slices.Sort(xs)
		for j := r.r0; j < r.r1; j++ {
			s.vals[j] = xs[s.ranks[j]-r.below]
		}
		return
	}
	lo, hi := keyRange(xs, math.MaxUint64, 0)
	if lo == hi {
		s.fill(r.r0, r.r1, unkey(lo))
		return
	}
	shift, nb := geometry(hi-lo, len(xs))
	hist := s.hist[:nb]
	clear(hist)
	countKeys(hist, xs, lo, shift)
	first := s.plan(hist, r.below, r.r0, r.r1)
	// plan may have moved s.buf; xs still reads the region's samples.
	gather(&s.hist, xs, lo, shift, s.regs[first:], s.buf)
	s.resolve(first)
}

// resolve narrows the regions pushed from index first, then pops them
// and their samples.
func (s *Selector) resolve(first int) {
	last := len(s.regs)
	for i := first; i < last; i++ {
		s.narrow(s.regs[i])
	}
	s.buf = s.buf[:s.regs[first].start]
	s.regs = s.regs[:first]
}

// fill sets the samples at ranks r0..r1-1 to x.
func (s *Selector) fill(r0, r1 int, x float64) {
	for j := r0; j < r1; j++ {
		s.vals[j] = x
	}
}

// The per-sample loops below stay out of line: inlined into their
// callers they lose registers to the callers' state and compile to
// spills and branches.

// keyRange folds the smallest and largest key of xs into lo and hi.
//
//go:noinline
func keyRange(xs []float64, lo, hi uint64) (uint64, uint64) {
	for _, x := range xs {
		k := key(x)
		lo = min(lo, k)
		hi = max(hi, k)
	}
	return lo, hi
}

// countKeys adds xs to the histogram h of keys offset by lo and
// shifted right by shift.
//
//go:noinline
func countKeys(h []uint32, xs []float64, lo uint64, shift uint) {
	for _, x := range xs {
		h[(key(x)-lo)>>(shift&63)]++
	}
}

// gather copies each sample of xs whose bucket holds a region id into
// buf at that region's cursor (the mask only spares the bounds check).
//
//go:noinline
func gather(h *[1 << maxBucketBits]uint32, xs []float64, lo uint64, shift uint, regs []region, buf []float64) {
	for _, x := range xs {
		if id := h[(key(x)-lo)>>(shift&63)&bucketMask]; id != 0 {
			r := &regs[id-1]
			buf[r.end] = x
			r.end++
		}
	}
}

// plan walks the bucket counts of a level whose samples order after
// below, pushes one region per bucket holding any of ranks[r0:r1],
// reserves their space on the sample stack and rewrites hist so each
// bucket holds its region's id (1-based from the returned first index)
// or 0.
func (s *Selector) plan(hist []uint32, below, r0, r1 int) (first int) {
	first = len(s.regs)
	top := len(s.buf)
	cum, j := below, r0
	for b, c := range hist {
		if j == r1 {
			clear(hist[b:])
			break
		}
		next := cum + int(c)
		hist[b] = 0
		if s.ranks[j] < next {
			reg := region{start: top, end: top, r0: j, below: cum}
			for j < r1 && s.ranks[j] < next {
				j++
			}
			reg.r1 = j
			top += int(c)
			s.regs = append(s.regs, reg)
			hist[b] = uint32(len(s.regs) - first)
		}
		cum = next
	}
	s.buf = slices.Grow(s.buf, top-len(s.buf))[:top]
	return first
}
