package simtime

import (
	"time"
)

// Oscillator models an imperfect device clock: the badge microcontrollers in
// the paper run on crystals whose frequency error produces clock shifts that
// the reference badge at the charging station is used to correct.
//
// A local reading L relates to true simulation time T as
//
//	L(T) = Offset + (1 + SkewPPM*1e-6) * T
type Oscillator struct {
	// Offset is the initial phase error of the clock.
	Offset time.Duration
	// SkewPPM is the constant frequency error in parts per million.
	// Typical watch crystals are within +-20 ppm.
	SkewPPM float64
}

// NewOscillator creates an oscillator with the given phase offset and skew.
func NewOscillator(offset time.Duration, skewPPM float64) *Oscillator {
	return &Oscillator{Offset: offset, SkewPPM: skewPPM}
}

// Read converts true simulation time to the local clock reading.
func (o *Oscillator) Read(trueTime time.Duration) time.Duration {
	scaled := time.Duration(float64(trueTime) * (1 + o.SkewPPM*1e-6))
	return o.Offset + scaled
}

// Day helpers shared across the simulator. The mission runs on "Martian
// time" maintained by artificial lighting; we model mission days as uniform
// 24 h periods from T0.

// DayLength is the length of one mission day.
const DayLength = 24 * time.Hour

// DayOf returns the 1-based mission day containing t (t=0 is day 1).
func DayOf(t time.Duration) int {
	if t < 0 {
		return 0
	}
	return int(t/DayLength) + 1
}

// StartOfDay returns the virtual time at which the 1-based day begins.
func StartOfDay(day int) time.Duration {
	return time.Duration(day-1) * DayLength
}

// TimeOfDay returns the offset of t within its day.
func TimeOfDay(t time.Duration) time.Duration {
	if t < 0 {
		return 0
	}
	return t % DayLength
}

// ClockString formats a time-of-day as HH:MM for report output.
func ClockString(t time.Duration) string {
	tod := TimeOfDay(t)
	h := int(tod / time.Hour)
	m := int(tod/time.Minute) % 60
	return twoDigits(h) + ":" + twoDigits(m)
}

func twoDigits(v int) string {
	return string([]byte{byte('0' + v/10), byte('0' + v%10)})
}
