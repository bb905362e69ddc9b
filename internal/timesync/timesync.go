// Package timesync turns opportunistic clock-exchange observations into
// per-badge clock corrections. The paper's deployment kept one permanently
// charged reference badge at the charging station which "served for the
// other badges as a time source, with which they communicated
// opportunistically. In effect, we were able to compute clock shifts between
// distinct devices and compare their sensor readings to the reference ones."
//
// A badge's local clock is modelled (see simtime.Oscillator) as
//
//	local = Offset + (1 + Skew) * ref
//
// Given sync observations (localᵢ, refᵢ) this package estimates Offset and
// Skew by ordinary least squares and produces a Correction that rectifies
// local timestamps to reference (mission) time. All downstream cross-badge
// analyses — meetings, co-presence, conversation timelines — require this
// rectification to be meaningful.
package timesync

import (
	"errors"
	"fmt"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// Errors of the estimator.
var (
	// ErrTooFewObservations is returned when fewer than MinObservations
	// sync exchanges are available.
	ErrTooFewObservations = errors.New("timesync: too few sync observations")
	// ErrDegenerate is returned when all observations coincide in time.
	ErrDegenerate = errors.New("timesync: degenerate observations")
)

// MinObservations is the minimum number of sync exchanges needed to
// estimate both offset and skew.
const MinObservations = 2

// Observation is one opportunistic exchange with the reference badge: the
// badge's local clock and the reference clock captured at the same instant.
type Observation struct {
	Local time.Duration
	Ref   time.Duration
}

// Correction maps a badge's local clock to reference time.
type Correction struct {
	// Offset is the estimated phase error: local at ref=0.
	Offset time.Duration
	// Skew is the estimated fractional frequency error (dimensionless;
	// 1e-6 is 1 ppm).
	Skew float64
	// Residual is the RMS residual of the fit, a confidence signal.
	Residual time.Duration
	// N is the number of observations used.
	N int
}

// Estimate fits a Correction to the observations by least squares over
// local = offset + (1+skew)·ref.
func Estimate(obs []Observation) (Correction, error) {
	if len(obs) < MinObservations {
		return Correction{}, fmt.Errorf("%w: have %d, need %d", ErrTooFewObservations, len(obs), MinObservations)
	}
	xs := make([]float64, len(obs))
	ys := make([]float64, len(obs))
	for i, o := range obs {
		xs[i] = float64(o.Ref)
		ys[i] = float64(o.Local)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		if errors.Is(err, stats.ErrDegenerate) {
			return Correction{}, ErrDegenerate
		}
		return Correction{}, fmt.Errorf("fit: %w", err)
	}
	c := Correction{
		Offset: time.Duration(fit.Intercept),
		Skew:   fit.Slope - 1,
		N:      len(obs),
	}
	// RMS residual.
	var sq float64
	for i := range xs {
		r := ys[i] - (fit.Intercept + fit.Slope*xs[i])
		sq += r * r
	}
	c.Residual = time.Duration(sqrt(sq / float64(len(xs))))
	return c, nil
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	// Newton iterations are plenty for residual reporting.
	x := v
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// ToReference converts a local badge timestamp to reference time.
func (c Correction) ToReference(local time.Duration) time.Duration {
	return time.Duration(float64(local-c.Offset) / (1 + c.Skew))
}

// ToLocal converts reference time to the badge's local clock.
func (c Correction) ToLocal(ref time.Duration) time.Duration {
	return c.Offset + time.Duration(float64(ref)*(1+c.Skew))
}

// ShiftBetween returns the relative shift between two badges' clocks at the
// given reference time (a's local minus b's local).
func ShiftBetween(a, b Correction, ref time.Duration) time.Duration {
	return a.ToLocal(ref) - b.ToLocal(ref)
}

// ObservationsFromRecords extracts sync observations from a badge's record
// stream (KindSync records carry Local plus the reference clock RefTime).
func ObservationsFromRecords(recs []record.Record) []Observation {
	out := make([]Observation, 0, 16)
	for _, r := range recs {
		if r.Kind != record.KindSync {
			continue
		}
		out = append(out, Observation{Local: r.Local, Ref: r.RefTime()})
	}
	return out
}

// EstimateFromRecords is a convenience composing ObservationsFromRecords
// and Estimate.
func EstimateFromRecords(recs []record.Record) (Correction, error) {
	return Estimate(ObservationsFromRecords(recs))
}

// Identity is the no-op correction (offset 0, skew 0), useful for the
// reference badge itself and for ablation runs that skip rectification.
func Identity() Correction {
	return Correction{}
}

// Estimator accumulates sync observations incrementally — as a gateway
// delivers a badge's records — and fits a Correction on demand. Fit is
// memoized until new observations arrive and delegates to Estimate over the
// accumulated set, so a fit over observations fed in any number of batches
// is byte-identical to one batch Estimate over the same observations — the
// property the pipeline's incremental rectification relies on.
//
// An Estimator is not safe for concurrent use; callers serialize Observe
// and Fit.
type Estimator struct {
	obs    []Observation
	dirty  bool
	fitted bool
	last   Correction
	err    error
}

// Observe adds one sync exchange.
func (e *Estimator) Observe(o Observation) {
	e.obs = append(e.obs, o)
	e.dirty = true
}

// ObserveCursor feeds every KindSync record the cursor yields into the
// estimator and returns how many observations were added. It visits each
// record exactly once, so fits over out-of-core sources stream without
// materializing the badge's record set.
func (e *Estimator) ObserveCursor(c *record.Cursor) int {
	n := 0
	for c.Next() {
		r := c.Record()
		if r.Kind != record.KindSync {
			continue
		}
		e.Observe(Observation{Local: r.Local, Ref: r.RefTime()})
		n++
	}
	return n
}

// Fit returns the correction over every observation so far, recomputing
// only when new observations arrived since the last fit.
func (e *Estimator) Fit() (Correction, error) {
	if e.dirty || !e.fitted {
		e.last, e.err = Estimate(e.obs)
		e.dirty = false
		e.fitted = true
	}
	return e.last, e.err
}
