package stats

import (
	"errors"
	"math"
)

// ErrMismatchedLengths is returned when paired samples differ in length.
var ErrMismatchedLengths = errors.New("stats: mismatched sample lengths")

// ErrDegenerate is returned when a fit or correlation is undefined for the
// input (e.g. zero variance).
var ErrDegenerate = errors.New("stats: degenerate input")

// LinearFit is the result of an ordinary-least-squares line fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// FitLine fits y = a + b*x by ordinary least squares. It returns
// ErrMismatchedLengths if the slices differ, ErrEmpty for fewer than two
// points, and ErrDegenerate if x has zero variance.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, ErrMismatchedLengths
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2}, nil
}

// Pearson returns the Pearson product-moment correlation of the paired
// samples. It returns ErrMismatchedLengths, ErrEmpty, or ErrDegenerate as
// appropriate.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatchedLengths
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrDegenerate
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MannKendall returns the Mann-Kendall trend statistic S and its normalized
// form tau in [-1, 1] for a time series. A negative tau indicates a
// decreasing trend (used to test the paper's "crew talked less toward the
// mission end" observation). It returns ErrEmpty for fewer than two points.
func MannKendall(xs []float64) (s int, tau float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, ErrEmpty
	}
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case xs[j] > xs[i]:
				s++
			case xs[j] < xs[i]:
				s--
			}
		}
	}
	pairs := n * (n - 1) / 2
	return s, float64(s) / float64(pairs), nil
}
