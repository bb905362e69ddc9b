package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Intercept, 1, 1e-9) || !almostEqual(fit.Slope, 2, 1e-9) {
		t.Errorf("fit = %+v, want intercept 1 slope 2", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrMismatchedLengths) {
		t.Errorf("mismatched: %v", err)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("too short: %v", err)
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("zero x variance: %v", err)
	}
}

func TestPearson(t *testing.T) {
	tests := []struct {
		name   string
		xs, ys []float64
		want   float64
	}{
		{"perfect positive", []float64{1, 2, 3}, []float64{10, 20, 30}, 1},
		{"perfect negative", []float64{1, 2, 3}, []float64{3, 2, 1}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Pearson(tt.xs, tt.ys)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("Pearson = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("constant input: %v", err)
	}
}

func TestMannKendall(t *testing.T) {
	_, tauUp, err := MannKendall([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tauUp != 1 {
		t.Errorf("increasing tau = %v, want 1", tauUp)
	}
	_, tauDown, _ := MannKendall([]float64{5, 4, 3, 2, 1})
	if tauDown != -1 {
		t.Errorf("decreasing tau = %v, want -1", tauDown)
	}
	s, _, _ := MannKendall([]float64{1, 1, 1})
	if s != 0 {
		t.Errorf("constant S = %v, want 0", s)
	}
	if _, _, err := MannKendall([]float64{1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("short input: %v", err)
	}
}

// Property: Pearson correlation is symmetric and within [-1, 1].
func TestQuickPearsonBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm(0, 1)
			ys[i] = r.Norm(0, 1)
		}
		a, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draws are fine
		}
		b, _ := Pearson(ys, xs)
		return a >= -1-1e-9 && a <= 1+1e-9 && almostEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FitLine recovers a known line under zero noise.
func TestQuickFitRecovery(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := r.Range(-10, 10)
		b := r.Range(-5, 5)
		n := 5 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64() // strictly increasing
			ys[i] = a + b*xs[i]
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Intercept, a, 1e-6) && almostEqual(fit.Slope, b, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrid2D(t *testing.T) {
	g, err := NewGrid2D(0, 0, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Add(0.5, 0.5, 2)
	g.Add(3.9, 2.9, 1)
	g.Add(-5, -5, 1) // clamps to (0,0)
	g.Add(99, 99, 1) // clamps to (3,2)
	if got := g.At(0, 0); got != 3 {
		t.Errorf("cell(0,0) = %v, want 3", got)
	}
	if got := g.At(3, 2); got != 2 {
		t.Errorf("cell(3,2) = %v, want 2", got)
	}
	if got := g.Total(); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
	if got := g.At(-1, 0); got != 0 {
		t.Errorf("out-of-range At = %v, want 0", got)
	}
}

func TestGrid2DLogScaled(t *testing.T) {
	g, _ := NewGrid2D(0, 0, 1, 2, 1)
	g.Add(0.5, 0.5, 9) // log10(10) = 1
	ls := g.LogScaled()
	if !almostEqual(ls.At(0, 0), 1, 1e-12) {
		t.Errorf("log cell = %v, want 1", ls.At(0, 0))
	}
	if ls.At(1, 0) != 0 {
		t.Errorf("empty log cell = %v, want 0", ls.At(1, 0))
	}
	// Original untouched.
	if g.At(0, 0) != 9 {
		t.Errorf("original mutated: %v", g.At(0, 0))
	}
}

func TestGrid2DRender(t *testing.T) {
	g, _ := NewGrid2D(0, 0, 1, 3, 2)
	g.Add(0.5, 0.5, 100)
	out := g.Render()
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 2 {
		t.Errorf("Render produced %d lines, want 2", lines)
	}
	if math.Abs(float64(len(out)-2*(3+1))) > 0 {
		t.Errorf("Render length = %d, want %d", len(out), 2*(3+1))
	}
}
