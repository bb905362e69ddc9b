// Package survey models the classic instrument the deployment kept
// alongside the badges: short evening self-reports "filled in by each
// astronaut every evening", asking about satisfaction, well-being, comfort,
// productivity, and distraction. The paper used them to "interpret and
// verify the findings obtained through multi-modal sensing"; this package
// generates scripted synthetic responses and provides the cross-validation
// (sensed-metric vs reported-score correlation) the verification relied on.
package survey

import (
	"errors"
	"fmt"
	"sort"

	"icares/internal/stats"
)

// Question identifies one evening-survey item.
type Question int

// The five ICAres-1 evening questions.
const (
	Satisfaction Question = iota + 1
	WellBeing
	Comfort
	Productivity
	Distraction
)

// String returns the question label.
func (q Question) String() string {
	switch q {
	case Satisfaction:
		return "satisfaction"
	case WellBeing:
		return "well-being"
	case Comfort:
		return "comfort"
	case Productivity:
		return "productivity"
	case Distraction:
		return "distraction"
	default:
		return fmt.Sprintf("question(%d)", int(q))
	}
}

// Scale bounds: 1 (lowest) to 7 (highest), a standard Likert scale.
const (
	ScaleMin = 1
	ScaleMax = 7
)

// Response is one astronaut's answers for one evening.
type Response struct {
	Name    string
	Day     int
	Answers map[Question]int
}

// ErrBadScale reports an out-of-range answer.
var ErrBadScale = errors.New("survey: answer out of scale")

// Validate checks the response.
func (r Response) Validate() error {
	for q, v := range r.Answers {
		if v < ScaleMin || v > ScaleMax {
			return fmt.Errorf("%w: %v=%d", ErrBadScale, q, v)
		}
	}
	return nil
}

// Collection stores all responses of a mission.
type Collection struct {
	responses []Response
}

// Add appends a validated response.
func (c *Collection) Add(r Response) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.responses = append(c.responses, r)
	return nil
}

// ByDay returns the mean answer to q per day across the crew.
func (c *Collection) ByDay(q Question) map[int]float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, r := range c.responses {
		if v, ok := r.Answers[q]; ok {
			sums[r.Day] += float64(v)
			counts[r.Day]++
		}
	}
	out := make(map[int]float64, len(sums))
	for d, s := range sums {
		out[d] = s / float64(counts[d])
	}
	return out
}

// MoodModel generates scripted synthetic responses: scores track the
// mission's behavioural trend (declining morale), with sharp dips after
// astronaut C's death and on the food-shortage and reprimand days — the
// ground truth the sensed speech decline should correlate with.
type MoodModel struct {
	// TrendFor maps a day to the mission talk-trend multiplier in (0,1].
	TrendFor func(day int) float64
	// DeathDay depresses well-being from the following day.
	DeathDay int
	// Noise is the response randomness (Likert points).
	Noise float64
}

// Generate produces a full mission's responses for the crew.
func (m MoodModel) Generate(names []string, firstDay, lastDay int, rng *stats.RNG) (*Collection, error) {
	if m.TrendFor == nil {
		return nil, errors.New("survey: nil trend")
	}
	col := &Collection{}
	for day := firstDay; day <= lastDay; day++ {
		trend := m.TrendFor(day)
		for _, name := range names {
			base := 2.2 + 4.5*trend // 1..7 scale anchor
			grief := 0.0
			if m.DeathDay > 0 && day > m.DeathDay {
				grief = 0.8 / float64(day-m.DeathDay)
			}
			score := func(offset float64) int {
				v := int(base + offset - grief + rng.Norm(0, m.Noise) + 0.5)
				if v < ScaleMin {
					v = ScaleMin
				}
				if v > ScaleMax {
					v = ScaleMax
				}
				return v
			}
			resp := Response{
				Name: name, Day: day,
				Answers: map[Question]int{
					Satisfaction: score(0),
					WellBeing:    score(-0.2),
					Comfort:      score(0.3),
					Productivity: score(0.1),
					// Distraction is inverted: quiet, tense days are less
					// distracting but worse; keep it loosely tied to trend.
					Distraction: score(-0.5),
				},
			}
			if err := col.Add(resp); err != nil {
				return nil, err
			}
		}
	}
	return col, nil
}

// CrossValidate correlates a sensed per-day metric with the crew-mean
// survey answer to q over the days both exist — the paper's verification
// step ("the answers allowed us to interpret and verify the findings
// obtained through multi-modal sensing").
func CrossValidate(c *Collection, q Question, sensedByDay map[int]float64) (r float64, n int, err error) {
	reported := c.ByDay(q)
	days := make([]int, 0, len(reported))
	for d := range reported {
		if _, ok := sensedByDay[d]; ok {
			days = append(days, d)
		}
	}
	sort.Ints(days)
	xs := make([]float64, 0, len(days))
	ys := make([]float64, 0, len(days))
	for _, d := range days {
		xs = append(xs, sensedByDay[d])
		ys = append(ys, reported[d])
	}
	r, err = stats.Pearson(xs, ys)
	return r, len(days), err
}
