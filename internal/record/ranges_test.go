package record

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/stats"
)

func tr(from, to int) TimeRange {
	return TimeRange{From: time.Duration(from) * time.Second, To: time.Duration(to) * time.Second}
}

func TestTimeRangeBasics(t *testing.T) {
	r := tr(10, 20)
	if r.Duration() != 10*time.Second {
		t.Errorf("duration = %v", r.Duration())
	}
	if !r.Contains(10 * time.Second) {
		t.Error("From not contained")
	}
	if r.Contains(20 * time.Second) {
		t.Error("To contained (should be half-open)")
	}
	if tr(20, 10).Duration() != 0 {
		t.Error("inverted range has duration")
	}
	// The all-time range is wider than math.MaxInt64: its length and the
	// total of any set holding it saturate instead of wrapping negative.
	all := TimeRange{From: math.MinInt64, To: math.MaxInt64}
	if got := all.Duration(); got != math.MaxInt64 {
		t.Errorf("all-time duration = %v, want MaxInt64", got)
	}
	for _, s := range []RangeSet{{all}, {all, tr(10, 20)}, {{From: math.MinInt64, To: 0}, {From: 1, To: math.MaxInt64}}} {
		if got := s.Total(); got != math.MaxInt64 {
			t.Errorf("%v total = %v, want MaxInt64", s, got)
		}
	}
}

func TestTimeRangeIntersect(t *testing.T) {
	tests := []struct {
		a, b, want TimeRange
	}{
		{tr(0, 10), tr(5, 15), tr(5, 10)},
		{tr(0, 10), tr(10, 20), tr(10, 10)},
		{tr(0, 10), tr(20, 30), tr(20, 20)},
		{tr(0, 30), tr(10, 20), tr(10, 20)},
	}
	for _, tt := range tests {
		got := tt.a.Intersect(tt.b)
		if got.Duration() != tt.want.Duration() {
			t.Errorf("%v ∩ %v = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRangeSetNormalize(t *testing.T) {
	s := RangeSet{tr(10, 20), tr(0, 5), tr(15, 30), tr(40, 40)}
	n := s.Normalize()
	if len(n) != 2 {
		t.Fatalf("normalized = %v", n)
	}
	if n[0] != tr(0, 5) || n[1] != tr(10, 30) {
		t.Errorf("normalized = %v", n)
	}
	if s.Total() != 25*time.Second {
		t.Errorf("total = %v", s.Total())
	}
}

func TestRangeSetContainsClip(t *testing.T) {
	s := RangeSet{tr(0, 10), tr(20, 30)}
	if !s.Contains(5 * time.Second) {
		t.Error("5 not contained")
	}
	if s.Contains(15 * time.Second) {
		t.Error("15 contained")
	}
	clipped := s.Clip(tr(5, 25))
	if clipped.Total() != 10*time.Second {
		t.Errorf("clip total = %v", clipped.Total())
	}
}

// wornRanges runs WornRangesCursor over an in-memory record slice.
func wornRanges(recs []Record, horizon time.Duration) RangeSet {
	c := NewCursor(recs)
	return WornRangesCursor(&c, horizon)
}

func TestWornRanges(t *testing.T) {
	recs := []Record{
		NewWear(10*time.Second, true),
		{Local: 20 * time.Second, Kind: KindAccel},
		NewWear(30*time.Second, false),
		NewWear(50*time.Second, true),
	}
	got := wornRanges(recs, 70*time.Second)
	if len(got) != 2 {
		t.Fatalf("worn ranges = %v", got)
	}
	if got[0] != tr(10, 30) || got[1] != tr(50, 70) {
		t.Errorf("worn ranges = %v", got)
	}
	// Duplicate transitions are idempotent.
	dup := []Record{
		NewWear(1*time.Second, true),
		NewWear(2*time.Second, true),
		NewWear(3*time.Second, false),
		NewWear(4*time.Second, false),
	}
	if got := wornRanges(dup, 10*time.Second); got.Total() != 2*time.Second {
		t.Errorf("dup worn total = %v", got.Total())
	}
	if got := wornRanges(nil, time.Hour); len(got) != 0 {
		t.Errorf("empty records = %v", got)
	}
}

func TestRangeSetContainsUnnormalized(t *testing.T) {
	// Inverted ranges are dropped by Normalize; Contains must not let them
	// claim (or deny) membership either.
	inv := RangeSet{tr(20, 10), tr(30, 40)}
	if inv.Contains(15 * time.Second) {
		t.Error("inverted range claimed membership")
	}
	if !inv.Contains(35 * time.Second) {
		t.Error("valid range after inverted one not consulted")
	}
	// Empty (zero-width) ranges contain nothing, like in Normalize.
	if (RangeSet{tr(5, 5)}).Contains(5 * time.Second) {
		t.Error("zero-width range claimed membership")
	}
	// Duplicates and overlaps change nothing.
	dup := RangeSet{tr(0, 10), tr(0, 10), tr(5, 15)}
	for _, at := range []int{0, 5, 9, 12} {
		if !dup.Contains(time.Duration(at) * time.Second) {
			t.Errorf("%ds not contained in duplicated set", at)
		}
	}
	if dup.Contains(15 * time.Second) {
		t.Error("half-open upper bound violated on duplicated set")
	}
}

// Property: Contains on any raw set agrees with Contains on its normalized
// form — the Normalize/Clip/Total semantics the rest of the pipeline uses.
func TestQuickContainsAgreesWithNormalize(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Intn(12)
		s := make(RangeSet, 0, n)
		for i := 0; i < n; i++ {
			from := rng.Intn(200)
			// Mix valid, empty, and inverted ranges.
			to := from + rng.Intn(80) - 30
			s = append(s, tr(from, to))
		}
		norm := s.Normalize()
		for at := 0; at < 220; at++ {
			d := time.Duration(at) * time.Second
			if s.Contains(d) != norm.Contains(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: on ascending probes, repeats included, over random sets —
// un-normalized, with empty and inverted ranges, or empty — the forward
// index agrees with Contains; so it does on a second, shuffled pass that
// forces it to reposition.
func TestQuickIndexAgreesWithContains(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Intn(12)
		s := make(RangeSet, 0, n)
		for i := 0; i < n; i++ {
			from := rng.Intn(200)
			s = append(s, tr(from, from+rng.Intn(80)-30))
		}
		var probes []time.Duration
		for at := -5; at < 230; at += rng.Intn(4) {
			probes = append(probes, time.Duration(at)*time.Second)
		}
		idx := s.Index()
		for _, d := range probes {
			if idx.Contains(d) != s.Contains(d) {
				return false
			}
		}
		for i := len(probes) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			probes[i], probes[j] = probes[j], probes[i]
		}
		for _, d := range probes {
			if idx.Contains(d) != s.Contains(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Normalize is idempotent and total is preserved under
// permutation.
func TestQuickRangeSetInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		mk := func() RangeSet {
			n := rng.Intn(10)
			s := make(RangeSet, 0, n)
			for i := 0; i < n; i++ {
				from := rng.Intn(1000)
				s = append(s, tr(from, from+rng.Intn(100)))
			}
			return s
		}
		a := mk()
		n1 := a.Normalize()
		if n1.Total() != a.Total() {
			return false
		}
		return len(n1) == 0 || n1.Normalize().Total() == n1.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
