package activity

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
)

// synthAccel produces accel bursts (3 samples per event, like the badge)
// with the given per-axis sigma.
func synthAccel(rng *stats.RNG, from, dur, every time.Duration, sigma float64) []record.Record {
	var out []record.Record
	for at := from; at < from+dur; at += every {
		for i := 0; i < 3; i++ {
			out = append(out, record.NewAccel(at+time.Duration(i)*50*time.Millisecond, int16(rng.Norm(0, sigma)), int16(rng.Norm(0, sigma)), int16(1000+rng.Norm(0, sigma))))
		}
	}
	return out
}

// classify runs ClassifyCursor over an in-memory record slice.
func classify(recs []record.Record, cfg Config) []Sample {
	c := record.NewCursor(recs)
	return ClassifyCursor(nil, &c, cfg, allTime)
}

func TestClassifyWalkingVsIdle(t *testing.T) {
	rng := stats.NewRNG(1)
	cfg := DefaultConfig()
	walk := classify(synthAccel(rng, 0, 10*time.Minute, 10*time.Second, 260), cfg)
	idle := classify(synthAccel(rng, 0, 10*time.Minute, 10*time.Second, 30), cfg)
	if f := WalkingFraction(walk); f < 0.9 {
		t.Errorf("walking fraction of walk data = %v", f)
	}
	if f := WalkingFraction(idle); f > 0.05 {
		t.Errorf("walking fraction of idle data = %v", f)
	}
}

func TestClassifyMixedStream(t *testing.T) {
	rng := stats.NewRNG(2)
	recs := synthAccel(rng, 0, 5*time.Minute, 10*time.Second, 260)
	recs = append(recs, synthAccel(rng, 5*time.Minute, 5*time.Minute, 10*time.Second, 25)...)
	samples := classify(recs, DefaultConfig())
	if len(samples) < 18 {
		t.Fatalf("samples = %d", len(samples))
	}
	f := WalkingFraction(samples)
	if f < 0.35 || f > 0.65 {
		t.Errorf("mixed fraction = %v, want ~0.5", f)
	}
	// RMS should be higher in walking windows.
	var rmsWalk, rmsIdle float64
	var nW, nI int
	for _, s := range samples {
		if s.Walking {
			rmsWalk += s.RMS
			nW++
		} else {
			rmsIdle += s.RMS
			nI++
		}
	}
	if nW == 0 || nI == 0 || rmsWalk/float64(nW) <= rmsIdle/float64(nI) {
		t.Error("walking RMS not above idle RMS")
	}
}

func TestClassifySkipsSparseWindows(t *testing.T) {
	recs := []record.Record{
		record.NewAccel(0, 500, 0, 1000),
	}
	if got := classify(recs, DefaultConfig()); len(got) != 0 {
		t.Errorf("single-sample window classified: %v", got)
	}
}

func TestClassifyIgnoresOtherKinds(t *testing.T) {
	rng := stats.NewRNG(3)
	recs := synthAccel(rng, 0, time.Minute, 10*time.Second, 30)
	recs = append(recs, record.NewMic(5*time.Second, false, 70, 0, 0))
	if got := classify(recs, DefaultConfig()); len(got) == 0 {
		t.Error("no samples")
	}
}

func TestFilterWorn(t *testing.T) {
	samples := []Sample{
		{At: 10 * time.Second}, {At: 50 * time.Second}, {At: 90 * time.Second},
	}
	worn := record.RangeSet{{From: 0, To: 30 * time.Second}, {From: 80 * time.Second, To: 120 * time.Second}}
	got := filterWorn(samples, worn)
	if len(got) != 2 {
		t.Fatalf("filtered = %v", got)
	}
	if got[0].At != 10*time.Second || got[1].At != 90*time.Second {
		t.Errorf("filtered = %v", got)
	}
}

func TestDailyWalkingFraction(t *testing.T) {
	rng := stats.NewRNG(4)
	day2 := simtime.StartOfDay(2)
	day3 := simtime.StartOfDay(3)
	var recs []record.Record
	// Day 2: mostly walking; day 3: mostly idle.
	recs = append(recs, synthAccel(rng, day2, time.Hour, 10*time.Second, 260)...)
	recs = append(recs, synthAccel(rng, day3, time.Hour, 10*time.Second, 25)...)
	worn := record.RangeSet{{From: day2, To: day3 + 2*time.Hour}}
	got := WalkingFractionByDay(filterWorn(classify(recs, DefaultConfig()), worn))
	if got[2] < 0.9 {
		t.Errorf("day 2 fraction = %v", got[2])
	}
	if got[3] > 0.05 {
		t.Errorf("day 3 fraction = %v", got[3])
	}
}

func TestWalkingFractionEmpty(t *testing.T) {
	if WalkingFraction(nil) != 0 {
		t.Error("empty fraction nonzero")
	}
}

// TestWalkingFractionByDay: samples count toward their 1-based mission day,
// and each day's fraction is its walking count over its sample count.
func TestWalkingFractionByDay(t *testing.T) {
	samples := []Sample{
		{At: simtime.StartOfDay(2) + time.Hour, Walking: true},
		{At: simtime.StartOfDay(2) + 2*time.Hour},
		{At: simtime.StartOfDay(5), Walking: true},
	}
	got := WalkingFractionByDay(samples)
	if len(got) != 2 || got[2] != 0.5 || got[5] != 1 {
		t.Errorf("by day = %v, want map[2:0.5 5:1]", got)
	}
	if got := WalkingFractionByDay(nil); len(got) != 0 {
		t.Errorf("by day of no samples = %v", got)
	}
}

// allTime is the worn set that keeps every window.
var allTime = record.RangeSet{{From: math.MinInt64, To: math.MaxInt64}}

// filterWorn keeps the samples whose window start worn contains: the
// reference filter ClassifyCursor's worn-first windowing must match.
func filterWorn(samples []Sample, worn record.RangeSet) []Sample {
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if worn.Contains(s.At) {
			out = append(out, s)
		}
	}
	return out
}

// randomWorn draws a worn set over [0, span): nil, empty, or up to five
// ranges, some inverted or zero-length, with ends off the window grid.
func randomWorn(rng *stats.RNG, span time.Duration) record.RangeSet {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return record.RangeSet{}
	}
	at := func() time.Duration { return time.Duration(rng.Float64() * float64(span)) }
	s := make(record.RangeSet, 1+rng.Intn(5))
	for i := range s {
		from := at()
		switch rng.Intn(4) {
		case 0:
			s[i] = record.TimeRange{From: from, To: from}
		case 1:
			s[i] = record.TimeRange{From: from, To: at()} // inverted half the time
		default:
			s[i] = record.TimeRange{From: from, To: from + at()/4}
		}
	}
	return s
}

// TestQuickClassifyWornMatchesFilterWorn: ClassifyCursor under a worn set
// appends filterWorn of the all-time samples to dst, keeping dst's prefix.
func TestQuickClassifyWornMatchesFilterWorn(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const span = time.Hour
		recs := synthAccel(rng, 0, span, 10*time.Second, rng.Range(20, 300))
		if rng.Bool(0.5) {
			// A sparse tail: windows below MinSamples yield no sample.
			recs = append(recs, record.NewAccel(span+time.Second, 500, 0, 1000))
		}
		worn := randomWorn(rng, span)
		c := record.NewCursor(recs)
		dst := make([]Sample, rng.Intn(3), 4)
		for i := range dst {
			dst[i].At = -time.Duration(i + 1)
		}
		want := append(dst[:len(dst):len(dst)], filterWorn(classify(recs, DefaultConfig()), worn)...)
		got := ClassifyCursor(dst, &c, DefaultConfig(), worn)
		return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
