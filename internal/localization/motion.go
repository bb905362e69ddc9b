package localization

import (
	"time"
)

// Motion metrics derived purely from the position track — the paper's
// second mobility channel next to the accelerometer ("using localization
// and data from accelerometers we also aimed to verify if the emulated
// death of C ... influenced mobility of the whole crew", including the
// "rate of location changes").

// MotionSample is the displacement between two consecutive fixes.
type MotionSample struct {
	At    time.Duration
	Speed float64 // m/s over the inter-fix gap
}

// Speeds converts a fix track into inter-fix speeds. Gaps longer than
// maxGap (badge off, EVA) are skipped, as are cross-room jumps, whose
// straight-line displacement underestimates the walked path through the
// atrium.
func Speeds(fixes []Fix, maxGap time.Duration) []MotionSample {
	if maxGap <= 0 {
		maxGap = DefaultMaxGap
	}
	out := make([]MotionSample, 0, len(fixes))
	for i := 1; i < len(fixes); i++ {
		dt := fixes[i].At - fixes[i-1].At
		if dt <= 0 || dt > maxGap {
			continue
		}
		if fixes[i].Room != fixes[i-1].Room {
			continue
		}
		d := fixes[i].Pos.Dist(fixes[i-1].Pos)
		out = append(out, MotionSample{
			At:    fixes[i].At,
			Speed: d / dt.Seconds(),
		})
	}
	return out
}

// LocationChangeRate counts room changes per hour of tracked time — the
// "rate of location changes" the paper inspects around C's death.
func LocationChangeRate(ivs []Interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	var tracked time.Duration
	for _, iv := range ivs {
		tracked += iv.Duration()
	}
	if tracked <= 0 {
		return 0
	}
	changes := 0
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Room != ivs[i-1].Room {
			changes++
		}
	}
	return float64(changes) / tracked.Hours()
}
