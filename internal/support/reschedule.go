package support

import (
	"fmt"
	"sort"
	"time"
)

// Rescheduling advisor — the paper's everyday-duty example for the support
// system: "a mechanism detecting fatigue or distraction among the crew and
// suggesting how to reschedule the tasks". The advisor never mutates the
// plan itself (a significant change goes through the Council); it produces
// suggestions for the crew to act on.

// TaskSlot is one entry of the mission's 30-minute plan.
type TaskSlot struct {
	Astronaut string
	Start     time.Duration
	Label     string
	// Demanding marks tasks unsuitable for a fatigued astronaut (EVAs,
	// precision lab work).
	Demanding bool
}

// Suggestion is one proposed plan adjustment.
type Suggestion struct {
	// Reason explains the trigger.
	Reason string
	// Swap proposes exchanging the assignees of two concurrent slots;
	// Rest proposes converting the slot into a rest break. Exactly one is
	// set.
	Swap *[2]TaskSlot
	Rest *TaskSlot
}

// String renders the suggestion.
func (s Suggestion) String() string {
	switch {
	case s.Swap != nil:
		return fmt.Sprintf("swap %q (%s) with %q (%s): %s",
			s.Swap[0].Label, s.Swap[0].Astronaut,
			s.Swap[1].Label, s.Swap[1].Astronaut, s.Reason)
	case s.Rest != nil:
		return fmt.Sprintf("convert %q (%s) into a rest break: %s",
			s.Rest.Label, s.Rest.Astronaut, s.Reason)
	default:
		return s.Reason
	}
}

// FatiguedFrom derives a fatigue set from the alert log: astronauts with a
// critical inactivity alert or repeated (>= 2) warnings of any kind within
// the trailing window.
func FatiguedFrom(alerts []Alert, now, window time.Duration) map[string]bool {
	counts := make(map[string]int)
	out := make(map[string]bool)
	for _, a := range alerts {
		if a.Subject == "" || a.At < now-window || a.At > now {
			continue
		}
		switch {
		case a.Severity == Critical:
			out[a.Subject] = true
		case a.Severity == Warning:
			counts[a.Subject]++
			if counts[a.Subject] >= 2 {
				out[a.Subject] = true
			}
		}
	}
	return out
}

// SuggestReschedule inspects the future plan: every demanding slot
// assigned to a fatigued astronaut gets either a swap with a concurrent
// non-demanding slot of a rested astronaut, or — when no swap partner
// exists — a rest conversion. Suggestions are ordered by slot start.
func SuggestReschedule(plan []TaskSlot, fatigued map[string]bool, now time.Duration) []Suggestion {
	future := make([]TaskSlot, 0, len(plan))
	for _, s := range plan {
		if s.Start >= now {
			future = append(future, s)
		}
	}
	sort.Slice(future, func(i, j int) bool {
		if future[i].Start != future[j].Start {
			return future[i].Start < future[j].Start
		}
		return future[i].Astronaut < future[j].Astronaut
	})

	swapped := make(map[int]bool) // indexes already consumed as partners
	var out []Suggestion
	for i, s := range future {
		if !s.Demanding || !fatigued[s.Astronaut] {
			continue
		}
		reason := fmt.Sprintf("%s shows fatigue signals and %q is demanding", s.Astronaut, s.Label)
		partner := -1
		for j, c := range future {
			if j == i || swapped[j] || c.Start != s.Start {
				continue
			}
			if c.Demanding || fatigued[c.Astronaut] {
				continue
			}
			partner = j
			break
		}
		if partner >= 0 {
			swapped[partner] = true
			pair := [2]TaskSlot{s, future[partner]}
			out = append(out, Suggestion{Reason: reason, Swap: &pair})
			continue
		}
		slot := s
		out = append(out, Suggestion{Reason: reason, Rest: &slot})
	}
	return out
}
