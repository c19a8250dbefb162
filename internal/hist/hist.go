// Package hist provides fixed-allocation, log-bucketed (HDR-style)
// histograms for latency distributions measured in cycles.
//
// Values are bucketed exactly below 2^subBits and log-linearly above:
// each power-of-two octave is split into 2^subBits sub-buckets, bounding
// the relative quantile error at 2^-subBits (~3%) while keeping the whole
// histogram a single fixed array — no allocation on the record path, and
// Merge is a flat array add, so per-run histograms can be folded across a
// sweep cheaply and deterministically.
package hist

import "math/bits"

const (
	subBits  = 5
	subCount = 1 << subBits
	// Buckets 0..subCount-1 hold exact values; each octave >= subBits
	// contributes subCount more.
	numBuckets = (63-subBits)*subCount + subCount
)

// Histogram is a fixed-size log-bucketed histogram. The zero value is
// ready to use, and plain assignment copies it (value semantics), which
// Snapshot-style APIs rely on.
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int((v >> (uint(exp) - subBits)) & (subCount - 1))
	return (exp-subBits+1)*subCount + sub
}

// upperBound is the largest value that maps into bucket i.
func upperBound(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	block := i / subCount
	sub := int64(i % subCount)
	exp := uint(block + subBits - 1)
	width := int64(1) << (exp - subBits)
	return int64(1)<<exp + (sub+1)*width - 1
}

// Record adds one observation. Negative values are clamped to zero (spans
// are non-negative by construction; the clamp keeps a corrupted input
// from indexing out of range).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest recorded observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the bucket holding the rank-⌈q·count⌉ observation,
// clamped to the true max. Exact for values below 2^subBits.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			u := upperBound(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Merge adds every observation of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Each calls fn for every non-empty bucket in ascending order with the
// bucket's inclusive upper bound and its (non-cumulative) count.
func (h *Histogram) Each(fn func(upper, count int64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(upperBound(i), c)
		}
	}
}

// Summary bundles the quantiles a latency table wants.
type Summary struct {
	Count                    int64
	P50, P90, P99, P999, Max int64
	Mean                     float64
}

// Summarize computes the standard latency summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
		Mean:  h.Mean(),
	}
}

// UpperFor returns the inclusive upper bound of the bucket that would
// hold v — the same edge Each reports — so callers can key per-bucket
// side tables (e.g. exemplars) off observed values.
func UpperFor(v int64) int64 {
	if v < 0 {
		v = 0
	}
	return upperBound(bucketIndex(v))
}
