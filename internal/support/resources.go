package support

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Resource accounting (the paper's Section VI): "Another aspect is
// optimizing utilization of scarce resources, such as power, water, oxygen,
// food, especially during critical periods." The Ledger tracks stocks and
// consumption rates and projects depletion; the day-11 food shortage of
// ICAres-1 (rations under 500 kcal/day) is the scenario it exists for.

// Resource identifies a tracked consumable.
type Resource string

// The life-critical consumables of a habitat.
const (
	Water  Resource = "water"
	Oxygen Resource = "oxygen"
	Food   Resource = "food"
	Power  Resource = "power"
)

// Stock is the state of one resource.
type Stock struct {
	// Level is the current amount, in the resource's unit (liters, kg,
	// kWh, ...).
	Level float64
	// ReservedMin is the emergency floor that must never be planned into
	// consumption.
	ReservedMin float64
}

// Ledger tracks resource stocks over mission time.
type Ledger struct {
	stocks map[Resource]Stock
	// consumption history for rate estimation
	history map[Resource][]consumption
	now     time.Duration
}

type consumption struct {
	at     time.Duration
	amount float64
}

// Errors of the ledger.
var (
	ErrUnknownResource = errors.New("support: unknown resource")
	ErrOverdraw        = errors.New("support: consumption exceeds stock")
)

// NewLedger creates a ledger with the given initial stocks.
func NewLedger(initial map[Resource]Stock) *Ledger {
	l := &Ledger{
		stocks:  make(map[Resource]Stock, len(initial)),
		history: make(map[Resource][]consumption),
	}
	for r, s := range initial {
		l.stocks[r] = s
	}
	return l
}

// Consume records usage at mission time now. Consumption below the
// emergency floor is rejected.
func (l *Ledger) Consume(now time.Duration, r Resource, amount float64) error {
	s, ok := l.stocks[r]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownResource, r)
	}
	if amount < 0 {
		return fmt.Errorf("support: negative consumption of %s", r)
	}
	if s.Level-amount < s.ReservedMin {
		return fmt.Errorf("%w: %s %.2f available above floor, %.2f requested",
			ErrOverdraw, r, s.Level-s.ReservedMin, amount)
	}
	s.Level -= amount
	l.stocks[r] = s
	l.history[r] = append(l.history[r], consumption{at: now, amount: amount})
	if now > l.now {
		l.now = now
	}
	return nil
}

// Resupply adds stock (a lander, recycling output, solar charge).
func (l *Ledger) Resupply(now time.Duration, r Resource, amount float64) error {
	s, ok := l.stocks[r]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownResource, r)
	}
	s.Level += amount
	l.stocks[r] = s
	if now > l.now {
		l.now = now
	}
	return nil
}

// RatePerDay estimates the consumption rate from the trailing window.
func (l *Ledger) RatePerDay(r Resource, window time.Duration) float64 {
	hist := l.history[r]
	if len(hist) == 0 || window <= 0 {
		return 0
	}
	cutoff := l.now - window
	var total float64
	first := l.now
	for _, c := range hist {
		if c.at < cutoff {
			continue
		}
		total += c.amount
		if c.at < first {
			first = c.at
		}
	}
	span := l.now - first
	if span < window/4 {
		span = window / 4 // avoid wild extrapolation from a short burst
	}
	if span <= 0 {
		return 0
	}
	return total / span.Hours() * 24
}

// Projection is a depletion forecast for one resource.
type Projection struct {
	Resource   Resource
	Level      float64
	RatePerDay float64
	// DaysLeft until the emergency floor at the current rate
	// (+Inf when the rate is zero).
	DaysLeft float64
}

// Forecast projects every resource using the trailing window for rates,
// sorted by urgency.
func (l *Ledger) Forecast(window time.Duration) []Projection {
	out := make([]Projection, 0, len(l.stocks))
	for r, s := range l.stocks {
		rate := l.RatePerDay(r, window)
		days := math.Inf(1)
		if rate > 0 {
			days = (s.Level - s.ReservedMin) / rate
		}
		out = append(out, Projection{
			Resource: r, Level: s.Level, RatePerDay: rate, DaysLeft: days,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DaysLeft != out[j].DaysLeft {
			return out[i].DaysLeft < out[j].DaysLeft
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// ResourceWatch turns ledger forecasts into support alerts: a warning when
// a resource is projected to hit its floor before the horizon, critical
// when within half of it.
type ResourceWatch struct {
	Ledger *Ledger
	// Horizon is the planning horizon (e.g. time until resupply or
	// mission end).
	Horizon time.Duration
	// Window is the rate-estimation window.
	Window time.Duration

	alerted map[Resource]Severity
}

// NewResourceWatch builds a watch with a 2-day rate window.
func NewResourceWatch(l *Ledger, horizon time.Duration) *ResourceWatch {
	return &ResourceWatch{
		Ledger:  l,
		Horizon: horizon,
		Window:  48 * time.Hour,
		alerted: make(map[Resource]Severity),
	}
}

// Check evaluates the forecast at mission time now and returns new alerts.
// Each resource alerts once per severity level until it recovers.
func (w *ResourceWatch) Check(now time.Duration) []Alert {
	var out []Alert
	horizonDays := w.Horizon.Hours() / 24
	for _, p := range w.Ledger.Forecast(w.Window) {
		var sev Severity
		switch {
		case p.DaysLeft <= horizonDays/2:
			sev = Critical
		case p.DaysLeft <= horizonDays:
			sev = Warning
		default:
			delete(w.alerted, p.Resource)
			continue
		}
		if w.alerted[p.Resource] >= sev {
			continue
		}
		w.alerted[p.Resource] = sev
		out = append(out, Alert{
			At: now, Severity: sev, Kind: "resource",
			Subject: string(p.Resource),
			Message: fmt.Sprintf("%s projected to reach its emergency floor in %.1f days (level %.1f, rate %.1f/day)",
				p.Resource, p.DaysLeft, p.Level, p.RatePerDay),
		})
	}
	return out
}
