package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Clamping out-of-range q.
	if got, _ := Quantile(xs, -1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	if got, _ := Quantile(xs, 2); got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4, 1})
	want := []float64{0.5, 1, 0.25}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormalizePreservesNaN(t *testing.T) {
	got := Normalize([]float64{math.NaN(), 2, 4})
	if !math.IsNaN(got[0]) {
		t.Errorf("NaN not preserved: %v", got[0])
	}
	if got[2] != 1 {
		t.Errorf("max not normalized to 1: %v", got[2])
	}
}

func TestNormalizeAllZeros(t *testing.T) {
	got := Normalize([]float64{0, 0})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("Normalize zeros = %v", got)
	}
}

// Property: normalized values are in [0,1] (ignoring NaN) and the max is 1
// whenever any positive value exists.
func TestQuickNormalize(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		anyPos := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Abs(v)
			xs = append(xs, v)
			if v > 0 {
				anyPos = true
			}
		}
		out := Normalize(xs)
		var mx float64
		for _, v := range out {
			if v < 0 || v > 1+1e-9 {
				return false
			}
			if v > mx {
				mx = v
			}
		}
		if anyPos && !almostEqual(mx, 1, 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean is within [min, max] for any non-empty sample.
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= slices.Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
