// Package activity classifies accelerometer streams into locomotion states
// and produces the mobility metrics of the paper: per-day walking fractions
// (Fig. 4) and average daily acceleration, restricted to the periods the
// badge was actually worn.
package activity

import (
	"math"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
)

// Config parameterizes the walking classifier.
type Config struct {
	// Window is the classification window length.
	Window time.Duration
	// WalkSigma is the per-axis standard-deviation threshold (milli-g)
	// above which a window counts as walking.
	WalkSigma float64
	// MinSamples is the minimum accel records per window for a decision.
	MinSamples int
}

// DefaultConfig returns thresholds matched to the badge's burst sampling:
// one window spans one accel burst (10 s cadence), walking produces ~260
// milli-g per-axis sigma, stationary wear well under 100.
func DefaultConfig() Config {
	return Config{
		Window:     10 * time.Second,
		WalkSigma:  120,
		MinSamples: 3,
	}
}

// Sample is one classified window.
type Sample struct {
	At      time.Duration // window start
	Walking bool
	// RMS is the root-mean-square deviation of the acceleration magnitude
	// from 1 g, a proxy for overall movement intensity.
	RMS float64
}

// ClassifyCursor windows the accel records of one badge, classifies each
// window whose start lies in worn, and appends the samples to dst. Records
// must be time-ordered. A window starting outside worn is neither buffered
// nor classified, so the samples are the worn-start subset of an all-time
// pass; a nil or empty worn keeps nothing. It makes one streaming pass
// holding only the current window's samples, so out-of-core sources never
// materialize the accel stream.
func ClassifyCursor(dst []Sample, c *record.Cursor, cfg Config, worn record.RangeSet) []Sample {
	if cfg.Window <= 0 {
		cfg = DefaultConfig()
	}
	out := dst
	var xs, ys []float64
	var magSq float64
	var curStart time.Duration
	in := worn.Index()
	started, keep := false, false
	flush := func() {
		if len(xs) < cfg.MinSamples {
			xs, ys = xs[:0], ys[:0]
			magSq = 0
			return
		}
		sigma := math.Max(sd(xs), sd(ys))
		out = append(out, Sample{
			At:      curStart,
			Walking: sigma >= cfg.WalkSigma,
			RMS:     math.Sqrt(magSq / float64(len(xs))),
		})
		xs, ys = xs[:0], ys[:0]
		magSq = 0
	}
	for c.Next() {
		r := c.Record()
		if r.Kind != record.KindAccel {
			continue
		}
		w := r.Local - (r.Local % cfg.Window)
		if !started || w != curStart {
			flush()
			curStart = w
			started = true
			keep = in.Contains(w)
		}
		if !keep {
			continue
		}
		ax, ay, az := r.Accel()
		x, y := float64(ax), float64(ay)
		xs = append(xs, x)
		ys = append(ys, y)
		dz := float64(az) - 1000
		m := x*x + y*y + dz*dz
		magSq += m
	}
	flush()
	return out
}

func sd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var sum float64
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// WalkingFraction returns the fraction of windows classified as walking.
func WalkingFraction(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s.Walking {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// WalkingFractionByDay computes the per-day walking fraction of already
// classified (and typically worn-filtered) samples, counting per 1-based
// mission day in one pass.
func WalkingFractionByDay(samples []Sample) map[int]float64 {
	counts := make(map[int][2]int) // day → {walking, total}
	for _, s := range samples {
		d := simtime.DayOf(s.At)
		c := counts[d]
		if s.Walking {
			c[0]++
		}
		c[1]++
		counts[d] = c
	}
	out := make(map[int]float64, len(counts))
	for d, c := range counts {
		out[d] = float64(c[0]) / float64(c[1])
	}
	return out
}
