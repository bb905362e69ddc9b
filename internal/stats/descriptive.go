package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty for an empty
// slice.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the median of xs. It returns ErrEmpty for an empty slice.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Normalize scales xs so its maximum maps to 1, as used for Table I of the
// paper ("average and normalized parameters"). Values are divided by the
// maximum; a zero or empty slice is returned unchanged. NaN inputs are
// preserved (the paper reports "n/a" for astronaut C's company score).
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var mx float64
	for _, x := range xs {
		if !math.IsNaN(x) && x > mx {
			mx = x
		}
	}
	for i, x := range xs {
		if math.IsNaN(x) || mx == 0 {
			out[i] = x
			continue
		}
		out[i] = x / mx
	}
	return out
}
