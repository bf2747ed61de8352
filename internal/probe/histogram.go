package probe

import (
	"fmt"
	"slices"
)

// Histogram is a fixed-boundary counting histogram with exact,
// deterministic quantiles. Bucket i (0 ≤ i < len(Bounds)) counts
// observations v with v ≤ Bounds[i] (and v > Bounds[i-1] for i > 0); the
// final bucket Counts[len(Bounds)] is the overflow. Fixed boundaries make
// merging exact: histograms with identical bounds merge by adding counts,
// which is associative and order-independent for every field except the
// float Sum (addition order can perturb its last bits; Merge folds
// left-to-right, so merging in submission order is reproducible).
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1, last is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Min and Max are the observed extremes; meaningful only when
	// Count > 0 (kept at 0 when empty so JSON marshaling never sees ±Inf).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// NewHistogram builds an empty histogram over the given bucket
// boundaries, which must be non-empty and strictly ascending (zero-width
// buckets are rejected).
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("probe: histogram needs at least one bucket boundary")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("probe: histogram bounds not strictly ascending: bounds[%d]=%v, bounds[%d]=%v (zero-width bucket)",
				i-1, bounds[i-1], i, bounds[i])
		}
	}
	return newHistogram(bounds), nil
}

// newHistogram is NewHistogram over bounds known to be valid.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: slices.Clone(bounds), Counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	h.Counts[h.bucket(v)]++
	if h.Count == 0 {
		h.Min, h.Max = v, v
	} else {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	h.Count++
	h.Sum += v
}

// bucket returns the index of the bucket covering v: the first boundary
// ≥ v, or the overflow bucket.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.Bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Merge folds o into h. Both histograms must share identical boundaries.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(h.Bounds) != len(o.Bounds) {
		return fmt.Errorf("probe: merging histograms with %d and %d bounds", len(h.Bounds), len(o.Bounds))
	}
	for i := range h.Bounds {
		// Exact comparison: mergeability requires bitwise-identical
		// boundaries, not approximate ones.
		if h.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("probe: merging histograms with different bounds at %d: %v vs %v", i, h.Bounds[i], o.Bounds[i])
		}
	}
	if o.Count == 0 {
		return nil
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	if h.Count == 0 {
		h.Min, h.Max = o.Min, o.Max
	} else {
		if o.Min < h.Min {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
	}
	h.Count += o.Count
	h.Sum += o.Sum
	return nil
}

// Clone returns a deep copy of h (nil-safe).
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.Bounds = append([]float64(nil), h.Bounds...)
	c.Counts = append([]uint64(nil), h.Counts...)
	return &c
}

// Quantile returns a deterministic estimate of the q-quantile
// (q clamped to [0, 1]): the rank ⌈q·Count⌉ observation located by a
// cumulative-count walk, linearly interpolated inside its bucket and
// clamped to the observed [Min, Max]. An empty histogram returns 0. The
// estimate is exact at q=0 (Min) and q=1 (Max) and monotone
// non-decreasing in q.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q > 1 {
		q = 1
	}
	// Target rank in [1, Count].
	target := uint64(q * float64(h.Count))
	if float64(target) < q*float64(h.Count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if target > cum+c {
			cum += c
			continue
		}
		lo, hi := h.bucketEdges(i)
		frac := float64(target-cum) / float64(c)
		v := lo + frac*(hi-lo)
		return clampRange(v, h.Min, h.Max)
	}
	return h.Max
}

// bucketEdges returns bucket i's value range clamped to the observed
// extremes, so interpolation never invents values outside the data.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.Min
	} else {
		lo = h.Bounds[i-1]
	}
	if i < len(h.Bounds) {
		hi = h.Bounds[i]
	} else {
		hi = h.Max
	}
	lo = clampRange(lo, h.Min, h.Max)
	hi = clampRange(hi, h.Min, h.Max)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
