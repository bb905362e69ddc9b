package faultplan

import (
	"time"

	"icares/internal/simtime"
	"icares/internal/stats"
	"icares/internal/store"
)

// Generate's fixed rate, mean window lengths, corruption probability and
// window-length clamps.
const (
	rfOutagesPerDay = 2
	outageMean      = 30 * time.Minute
	deathMean       = 2 * time.Hour
	crashMean       = 20 * time.Minute
	blackoutMean    = time.Hour
	corruptionProb  = 0.05
	minWindow       = 5 * time.Minute
	maxWindow       = 6 * time.Hour
)

// Generate builds a randomized-but-seeded plan over the span [from, to),
// typically a mission's data days. Per started day of the span it places
// two RF outages (mean 30 min) and one each of badge death (mean 2 h),
// uplink blackout (mean 1 h), sync dropout (mean 2 h) and frame corruption
// (mean 30 min, p = 0.05), plus one gateway crash (mean 20 min) per two
// days; every kind gets at least one window. Window starts are uniform over
// the span, lengths are exponential around the means (clamped to
// [5 min, 6 h] and to the span's end), and badge scopes are drawn
// uniformly from badges. All randomness flows from seed, so equal
// arguments yield identical plans.
func Generate(seed uint64, from, to time.Duration, badges []store.BadgeID) *Plan {
	rng := stats.NewRNG(seed)
	span := to - from
	days := max(1, int((span+simtime.DayLength-1)/simtime.DayLength))

	window := func(mean time.Duration) (time.Duration, time.Duration) {
		start := from + time.Duration(rng.Range(0, float64(span)))
		length := min(max(time.Duration(rng.Exp(float64(mean))), minWindow), maxWindow)
		return start, min(start+length, to)
	}
	pickBadge := func() store.BadgeID {
		if len(badges) == 0 {
			return 0
		}
		return badges[rng.Intn(len(badges))]
	}

	var evs []Event
	for i := 0; i < rfOutagesPerDay*days; i++ {
		s, e := window(outageMean)
		evs = append(evs, Event{Kind: RFOutage, From: s, To: e})
	}
	for i := 0; i < days; i++ {
		s, e := window(deathMean)
		evs = append(evs, Event{Kind: BadgeDeath, From: s, To: e, Badge: pickBadge()})
	}
	for i := 0; i < (days+1)/2; i++ {
		s, e := window(crashMean)
		evs = append(evs, Event{Kind: GatewayCrash, From: s, To: e})
	}
	for i := 0; i < days; i++ {
		s, e := window(blackoutMean)
		evs = append(evs, Event{Kind: UplinkBlackout, From: s, To: e})
	}
	for i := 0; i < days; i++ {
		s, e := window(deathMean)
		evs = append(evs, Event{Kind: SyncDropout, From: s, To: e, Badge: pickBadge()})
	}
	for i := 0; i < days; i++ {
		s, e := window(outageMean)
		evs = append(evs, Event{Kind: FrameCorruption, From: s, To: e, Prob: corruptionProb})
	}
	return New(seed, evs...)
}
