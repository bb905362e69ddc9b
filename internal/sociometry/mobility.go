package sociometry

import (
	"math"
	"time"

	"icares/internal/localization"
	"icares/internal/proximity"
	"icares/internal/simtime"
)

// Mobility and social-structure analyses layered on the track data: the
// paper inspects the "rate of location changes" around C's death and the
// community structure of the crew.

// ChangeRateByDay returns, per mission day, the astronaut's room changes
// per tracked hour — the series the paper used to ask "whether the
// astronauts were forced to move between different rooms in a more hectic,
// rapid way to complete tasks of the deceased".
func (p *Pipeline) ChangeRateByDay(name string) map[int]float64 {
	ivs := p.Intervals(name)
	byDay := make(map[int][]localization.Interval)
	for _, iv := range ivs {
		d := simtime.DayOf(iv.From)
		byDay[d] = append(byDay[d], iv)
	}
	out := make(map[int]float64, len(byDay))
	for d, dayIvs := range byDay {
		out[d] = localization.LocationChangeRate(dayIvs)
	}
	return out
}

// MeanSpeedByDay returns the astronaut's mean in-room movement speed per
// day (m/s over inter-fix displacement).
func (p *Pipeline) MeanSpeedByDay(name string) map[int]float64 {
	speeds := localization.Speeds(p.Track(name), localization.DefaultMaxGap)
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, s := range speeds {
		if math.IsNaN(s.Speed) || math.IsInf(s.Speed, 0) {
			continue
		}
		d := simtime.DayOf(s.At)
		sums[d] += s.Speed
		counts[d]++
	}
	out := make(map[int]float64, len(sums))
	for d, sum := range sums {
		out[d] = sum / float64(counts[d])
	}
	return out
}

// Communities partitions the crew by label propagation on the co-presence
// graph, ignoring pairs below minWeight of shared time.
func (p *Pipeline) Communities(minWeight time.Duration) [][]string {
	return proximity.Communities(p.crew().summary.Pairs, p.src.Names, minWeight, 0)
}
