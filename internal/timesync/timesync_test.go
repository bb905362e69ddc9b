package timesync

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
)

func TestEstimateRecoversKnownClock(t *testing.T) {
	tests := []struct {
		name    string
		offset  time.Duration
		skewPPM float64
	}{
		{"zero clock", 0, 0},
		{"pure offset", 3 * time.Second, 0},
		{"pure skew", 0, 40},
		{"offset and skew", -2 * time.Second, -25},
		{"large offset", time.Minute, 15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			osc := simtime.NewOscillator(tt.offset, tt.skewPPM)
			var obs []Observation
			for h := 1; h <= 12; h++ {
				ref := time.Duration(h) * time.Hour
				obs = append(obs, Observation{Local: osc.Read(ref), Ref: ref})
			}
			c, err := Estimate(obs)
			if err != nil {
				t.Fatal(err)
			}
			if d := c.Offset - tt.offset; d < -time.Millisecond || d > time.Millisecond {
				t.Errorf("offset = %v, want %v", c.Offset, tt.offset)
			}
			gotPPM := c.Skew * 1e6
			if d := gotPPM - tt.skewPPM; d < -0.5 || d > 0.5 {
				t.Errorf("skew = %v ppm, want %v", gotPPM, tt.skewPPM)
			}
			// Rectification inverts the clock within a millisecond over the
			// whole mission.
			for _, ref := range []time.Duration{time.Hour, 7 * simtime.DayLength, 14 * simtime.DayLength} {
				back := c.ToReference(osc.Read(ref))
				if d := back - ref; d < -time.Millisecond || d > time.Millisecond {
					t.Errorf("rectified %v -> %v", ref, back)
				}
			}
		})
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(nil); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Estimate([]Observation{{Local: 1, Ref: 1}}); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("single: %v", err)
	}
	same := []Observation{{Local: 5, Ref: 3}, {Local: 6, Ref: 3}}
	if _, err := Estimate(same); !errors.Is(err, ErrDegenerate) {
		t.Errorf("degenerate: %v", err)
	}
}

func TestEstimateNoisyObservations(t *testing.T) {
	rng := stats.NewRNG(11)
	osc := simtime.NewOscillator(500*time.Millisecond, 30)
	var obs []Observation
	for i := 0; i < 14; i++ { // one exchange per night, like the deployment
		ref := time.Duration(i) * simtime.DayLength
		noise := time.Duration(rng.Norm(0, 2e6)) // ~2 ms exchange jitter
		obs = append(obs, Observation{Local: osc.Read(ref) + noise, Ref: ref})
	}
	c, err := Estimate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Offset - 500*time.Millisecond; d < -20*time.Millisecond || d > 20*time.Millisecond {
		t.Errorf("noisy offset = %v", c.Offset)
	}
	if c.Residual <= 0 || c.Residual > 20*time.Millisecond {
		t.Errorf("residual = %v", c.Residual)
	}
	if c.N != 14 {
		t.Errorf("N = %d", c.N)
	}
}

func TestToLocalToReferenceInverse(t *testing.T) {
	c := Correction{Offset: 2 * time.Second, Skew: 35e-6}
	for _, ref := range []time.Duration{0, time.Hour, 10 * simtime.DayLength} {
		if got := c.ToReference(c.ToLocal(ref)); got != ref {
			// Allow a nanosecond of float rounding.
			if d := got - ref; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("round trip %v -> %v", ref, got)
			}
		}
	}
}

func TestShiftAtAndBetween(t *testing.T) {
	a := Correction{Offset: time.Second, Skew: 0}
	b := Correction{Offset: -time.Second, Skew: 0}
	if got := a.ToLocal(time.Hour) - time.Hour; got != time.Second {
		t.Errorf("shift = %v", got)
	}
	if got := ShiftBetween(a, b, time.Hour); got != 2*time.Second {
		t.Errorf("ShiftBetween = %v", got)
	}
	// Skew makes shift grow with time.
	c := Correction{Offset: 0, Skew: 10e-6}
	s1 := c.ToLocal(time.Hour) - time.Hour
	s2 := c.ToLocal(10*time.Hour) - (10 * time.Hour)
	if s2 <= s1 {
		t.Errorf("skewed shift did not grow: %v then %v", s1, s2)
	}
}

func TestObservationsFromRecords(t *testing.T) {
	recs := []record.Record{
		{Local: time.Second, Kind: record.KindAccel},
		record.NewSync(2*time.Second, 1900*time.Millisecond),
		{Local: 3 * time.Second, Kind: record.KindMic},
		record.NewSync(4*time.Second, 3900*time.Millisecond),
	}
	obs := ObservationsFromRecords(recs)
	if len(obs) != 2 {
		t.Fatalf("obs = %d", len(obs))
	}
	if obs[0].Local != 2*time.Second || obs[0].Ref != 1900*time.Millisecond {
		t.Errorf("obs[0] = %+v", obs[0])
	}

	c, err := EstimateFromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Offset - 100*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset from records = %v", c.Offset)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity()
	if got := id.ToReference(5 * time.Second); got != 5*time.Second {
		t.Errorf("identity rectify = %v", got)
	}
	if got := id.ToLocal(time.Hour) - time.Hour; got != 0 {
		t.Errorf("identity shift = %v", got)
	}
}

// Property: Estimate recovers random clocks to sub-millisecond accuracy from
// noise-free observations.
func TestQuickEstimateRecovery(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		offset := time.Duration(rng.Intn(2_000_001)-1_000_000) * time.Microsecond
		ppm := rng.Range(-100, 100)
		osc := simtime.NewOscillator(offset, ppm)
		obs := make([]Observation, 0, 10)
		for i := 0; i < 10; i++ {
			ref := time.Duration(i) * 6 * time.Hour
			obs = append(obs, Observation{Local: osc.Read(ref), Ref: ref})
		}
		c, err := Estimate(obs)
		if err != nil {
			return false
		}
		d := c.Offset - offset
		if d < -time.Millisecond || d > time.Millisecond {
			return false
		}
		dp := c.Skew*1e6 - ppm
		return dp > -1 && dp < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorMatchesBatchEstimate pins the incremental estimator's core
// contract: observations fed in any chunking produce the exact fit a single
// batch Estimate gives, and Fit is memoized until new data arrives.
func TestEstimatorMatchesBatchEstimate(t *testing.T) {
	var obs []Observation
	var recs []record.Record
	for i := 0; i < 40; i++ {
		ref := time.Duration(i) * 10 * time.Minute
		local := 3*time.Second + time.Duration(float64(ref)*(1+15e-6))
		obs = append(obs, Observation{Local: local, Ref: ref})
		recs = append(recs, record.NewSync(local, ref))
	}
	want, err := Estimate(obs)
	if err != nil {
		t.Fatal(err)
	}

	var e Estimator
	if _, err := e.Fit(); err == nil {
		t.Fatal("empty estimator fitted")
	}
	// Feed in uneven chunks, fitting in between (stale fits must not poison
	// the final one).
	for _, chunk := range [][]record.Record{recs[:3], recs[3:17], recs[17:18], recs[18:]} {
		c := record.NewCursor(chunk)
		if n := e.ObserveCursor(&c); n != len(chunk) {
			t.Fatalf("observed %d of %d records", n, len(chunk))
		}
		e.Fit()
	}
	got, err := e.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("incremental fit %+v != batch fit %+v", got, want)
	}
	if len(e.obs) != len(obs) {
		t.Fatalf("N = %d, want %d", len(e.obs), len(obs))
	}
}
