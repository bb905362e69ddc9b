// Package proximity derives the social-contact structure of the crew from
// localization tracks and badge-to-badge observations: pairwise co-presence
// time, "company" time (time spent accompanied — the basis of the paper's
// Table I centrality column), meeting detection with group/private
// classification, and infrared face-to-face contact time.
package proximity

import (
	"cmp"
	"slices"
	"time"

	"icares/internal/habitat"
	"icares/internal/localization"
)

// Presence maps each person to their room-stay intervals (from
// localization.RoomIntervals, rectified to mission time).
type Presence map[string][]localization.Interval

// Pair is an unordered pair of names (Pair[0] < Pair[1]).
type Pair [2]string

// MakePair normalizes an unordered pair.
func MakePair(a, b string) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Summary is every crew-level co-presence aggregate of one presence map,
// computed together by Summarize.
type Summary struct {
	// Company is, per person, the total time spent in a room together with
	// at least one other tracked person — the paper's "centrality measured
	// as amount of time spent accompanied".
	Company map[string]time.Duration
	// Pairs is, per unordered pair, the total co-presence time (same room
	// simultaneously).
	Pairs map[Pair]time.Duration
	// Private is co-presence time counted only while the pair was alone
	// together (exactly two people in the room) — the paper's "talked
	// privately with each other" comparison for A-F vs D-E.
	Private map[Pair]time.Duration
	// Meetings are the maximal spans in which a fixed set of at least two
	// people shared a room, of any length, ordered by From, then Room.
	// Membership changes end a meeting and may start a new one.
	Meetings []Meeting
}

// Meeting is a maximal period with a fixed set of two or more people in one
// room.
type Meeting struct {
	Room         habitat.RoomID
	From, To     time.Duration
	Participants []string
}

// Duration returns the meeting length.
func (m Meeting) Duration() time.Duration { return m.To - m.From }

// Private reports whether the meeting had exactly two participants.
func (m Meeting) Private() bool { return len(m.Participants) == 2 }

// event is a sweep-line event: person who (an index into the sorted names)
// enters or leaves a room.
type event struct {
	at    time.Duration
	room  habitat.RoomID
	who   int
	enter bool
}

// occupancy is one room's state during the sweep: who is in it (ascending
// person indices, so names in sorted order) since when, and, while the
// events of one instant are applied, who was in it before them.
type occupancy struct {
	members []int
	since   time.Duration
	before  []int
	touched bool
}

// Summarize computes every aggregate of Summary in one time-ordered sweep
// over all presence changes. A room's occupancy only changes at its own
// events, so each maximal span of fixed membership is credited once, when
// it ends, instead of once per span between any two events of the crew.
// Leaves are applied before enters at the same instant, and membership is
// compared after all of an instant's events, so someone leaving and
// re-entering a room at one instant neither ends a meeting nor starts one.
func Summarize(p Presence) Summary {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	slices.Sort(names)
	var events []event
	for who, name := range names {
		for _, iv := range p[name] {
			if iv.Duration() <= 0 {
				continue
			}
			events = append(events,
				event{at: iv.From, room: iv.Room, who: who, enter: true},
				event{at: iv.To, room: iv.Room, who: who})
		}
	}
	slices.SortFunc(events, func(a, b event) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.enter == b.enter:
			return 0
		case a.enter:
			return 1 // leaves before enters at the same instant
		}
		return -1
	})

	n := len(names)
	company := make([]time.Duration, n)
	pairs := make([]time.Duration, n*n) // [i*n+j] for i < j
	private := make([]time.Duration, n*n)
	var meetings []Meeting
	// end credits a room's membership for [since, at) and records it as a
	// meeting when two or more shared the room.
	end := func(room habitat.RoomID, members []int, since, at time.Duration) {
		if len(members) < 2 {
			return
		}
		span := at - since
		m := Meeting{Room: room, From: since, To: at, Participants: make([]string, len(members))}
		for k, i := range members {
			company[i] += span
			m.Participants[k] = names[i]
			for _, j := range members[k+1:] {
				pairs[i*n+j] += span
			}
		}
		if len(members) == 2 {
			private[members[0]*n+members[1]] += span
		}
		meetings = append(meetings, m)
	}

	rooms := make(map[habitat.RoomID]*occupancy)
	var touched []habitat.RoomID
	for i := 0; i < len(events); {
		at := events[i].at
		for ; i < len(events) && events[i].at == at; i++ {
			ev := events[i]
			o := rooms[ev.room]
			if o == nil {
				o = new(occupancy)
				rooms[ev.room] = o
			}
			if !o.touched {
				o.touched = true
				o.before = append(o.before[:0], o.members...)
				touched = append(touched, ev.room)
			}
			k, in := slices.BinarySearch(o.members, ev.who)
			switch {
			case ev.enter && !in:
				o.members = slices.Insert(o.members, k, ev.who)
			case !ev.enter && in:
				o.members = slices.Delete(o.members, k, k+1)
			}
		}
		for _, room := range touched {
			o := rooms[room]
			o.touched = false
			if !slices.Equal(o.before, o.members) {
				end(room, o.before, o.since, at)
				o.since = at
			}
		}
		touched = touched[:0]
	}
	// Every interval has ended by the last event, so every room is empty
	// and every meeting closed.

	s := Summary{
		Company: make(map[string]time.Duration, n),
		Pairs:   make(map[Pair]time.Duration),
		Private: make(map[Pair]time.Duration),
	}
	for i, name := range names {
		if company[i] > 0 {
			s.Company[name] = company[i]
		}
		for j := i + 1; j < n; j++ {
			pair := Pair{name, names[j]}
			if d := pairs[i*n+j]; d > 0 {
				s.Pairs[pair] = d
			}
			if d := private[i*n+j]; d > 0 {
				s.Private[pair] = d
			}
		}
	}
	slices.SortFunc(meetings, func(a, b Meeting) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.Room, b.Room)
	})
	s.Meetings = meetings
	return s
}

// Contact is one face-to-face IR detection between two people at an
// instant (already mapped from badge IDs to wearers).
type Contact struct {
	At   time.Duration
	A, B string
}

// IRPairTime converts IR contact events into pairwise face-to-face time,
// crediting one detection period per contact.
func IRPairTime(contacts []Contact, period time.Duration) map[Pair]time.Duration {
	if period <= 0 {
		period = 15 * time.Second
	}
	// Deduplicate contacts recorded by both badges within the same period.
	type key struct {
		slot int64
		pair Pair
	}
	seen := make(map[key]bool)
	out := make(map[Pair]time.Duration)
	for _, c := range contacts {
		k := key{slot: int64(c.At / period), pair: MakePair(c.A, c.B)}
		if seen[k] {
			continue
		}
		seen[k] = true
		out[k.pair] += period
	}
	return out
}
