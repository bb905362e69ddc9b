package proximity

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/habitat"
	"icares/internal/localization"
)

func iv(room habitat.RoomID, fromSec, toSec int) localization.Interval {
	return localization.Interval{
		Room: room,
		From: time.Duration(fromSec) * time.Second,
		To:   time.Duration(toSec) * time.Second,
	}
}

func TestMakePair(t *testing.T) {
	if MakePair("B", "A") != (Pair{"A", "B"}) {
		t.Error("pair not normalized")
	}
	if MakePair("A", "B") != MakePair("B", "A") {
		t.Error("pair not symmetric")
	}
}

func TestCompanyTime(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 100)},
		"B": {iv(habitat.Kitchen, 50, 150)},
		"C": {iv(habitat.Office, 0, 150)}, // alone the whole time
	}
	got := Summarize(p).Company
	if got["A"] != 50*time.Second {
		t.Errorf("A company = %v", got["A"])
	}
	if got["B"] != 50*time.Second {
		t.Errorf("B company = %v", got["B"])
	}
	if got["C"] != 0 {
		t.Errorf("C company = %v", got["C"])
	}
}

func TestCompanyTimeTriple(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 60)},
		"B": {iv(habitat.Kitchen, 0, 60)},
		"C": {iv(habitat.Kitchen, 30, 60)},
	}
	got := Summarize(p).Company
	if got["A"] != 60*time.Second || got["B"] != 60*time.Second {
		t.Errorf("A/B company = %v/%v", got["A"], got["B"])
	}
	if got["C"] != 30*time.Second {
		t.Errorf("C company = %v", got["C"])
	}
}

func TestPairTime(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 100), iv(habitat.Office, 100, 200)},
		"B": {iv(habitat.Kitchen, 0, 50), iv(habitat.Office, 150, 200)},
	}
	got := Summarize(p).Pairs
	want := 100 * time.Second // 50 kitchen + 50 office
	if got[MakePair("A", "B")] != want {
		t.Errorf("pair time = %v, want %v", got[MakePair("A", "B")], want)
	}
}

func TestPrivatePairTime(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 100)},
		"B": {iv(habitat.Kitchen, 0, 100)},
		"C": {iv(habitat.Kitchen, 50, 100)}, // third wheel after 50s
	}
	got := Summarize(p).Private
	if got[MakePair("A", "B")] != 50*time.Second {
		t.Errorf("private A-B = %v", got[MakePair("A", "B")])
	}
	// With C present it is a group, not a private meeting.
	if got[MakePair("A", "C")] != 0 {
		t.Errorf("private A-C = %v", got[MakePair("A", "C")])
	}
}

func TestMeetingsDetection(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 300)},
		"B": {iv(habitat.Kitchen, 0, 300)},
		"C": {iv(habitat.Kitchen, 100, 200)},
	}
	ms := meetings(p, 2, 30*time.Second)
	if len(ms) != 3 {
		t.Fatalf("meetings = %+v", ms)
	}
	// Phase 1: A,B private. Phase 2: A,B,C group. Phase 3: A,B private.
	if !ms[0].Private() || ms[1].Private() || !ms[2].Private() {
		t.Errorf("privacy sequence wrong: %+v", ms)
	}
	if len(ms[1].Participants) != 3 {
		t.Errorf("group meeting participants = %v", ms[1].Participants)
	}
	if ms[1].From != 100*time.Second || ms[1].To != 200*time.Second {
		t.Errorf("group meeting span = %v..%v", ms[1].From, ms[1].To)
	}
}

func TestMeetingsMinDuration(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 10)},
		"B": {iv(habitat.Kitchen, 0, 10)},
	}
	if ms := meetings(p, 2, 30*time.Second); len(ms) != 0 {
		t.Errorf("short meeting kept: %+v", ms)
	}
	if ms := meetings(p, 2, 5*time.Second); len(ms) != 1 {
		t.Errorf("meeting dropped: %+v", ms)
	}
}

func TestMeetingsAcrossRooms(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 100), iv(habitat.Office, 100, 200)},
		"B": {iv(habitat.Kitchen, 0, 100), iv(habitat.Office, 100, 200)},
	}
	ms := meetings(p, 2, 30*time.Second)
	if len(ms) != 2 {
		t.Fatalf("meetings = %+v", ms)
	}
	if ms[0].Room != habitat.Kitchen || ms[1].Room != habitat.Office {
		t.Errorf("rooms = %v, %v", ms[0].Room, ms[1].Room)
	}
}

func TestMeetingsEmptyPresence(t *testing.T) {
	if ms := Summarize(Presence{}).Meetings; len(ms) != 0 {
		t.Errorf("meetings from nothing: %v", ms)
	}
}

func TestIRPairTimeDeduplicates(t *testing.T) {
	period := 15 * time.Second
	contacts := []Contact{
		{At: 0, A: "A", B: "F"},
		{At: 0, A: "F", B: "A"}, // same contact recorded by the other badge
		{At: 15 * time.Second, A: "A", B: "F"},
		{At: 15 * time.Second, A: "D", B: "E"},
	}
	got := IRPairTime(contacts, period)
	if got[MakePair("A", "F")] != 30*time.Second {
		t.Errorf("A-F IR time = %v", got[MakePair("A", "F")])
	}
	if got[MakePair("D", "E")] != 15*time.Second {
		t.Errorf("D-E IR time = %v", got[MakePair("D", "E")])
	}
}

func TestSweepLeavesBeforeEnters(t *testing.T) {
	// B leaves the kitchen at the same instant C enters: no phantom
	// three-way meeting.
	p := Presence{
		"A": {iv(habitat.Kitchen, 0, 200)},
		"B": {iv(habitat.Kitchen, 0, 100)},
		"C": {iv(habitat.Kitchen, 100, 200)},
	}
	ms := meetings(p, 3, time.Second)
	if len(ms) != 0 {
		t.Errorf("phantom triple meeting: %+v", ms)
	}
}

// meetings filters the summary's meetings the way callers do: at least
// minSize participants and minDur long.
func meetings(p Presence, minSize int, minDur time.Duration) []Meeting {
	var out []Meeting
	for _, m := range Summarize(p).Meetings {
		if len(m.Participants) >= minSize && m.Duration() >= minDur {
			out = append(out, m)
		}
	}
	return out
}

// TestMeetingsOrderedByFromThenRoom: meetings in two rooms that start at
// the same instant come out in room order on every run.
func TestMeetingsOrderedByFromThenRoom(t *testing.T) {
	p := Presence{
		"A": {iv(habitat.Office, 0, 100)},
		"B": {iv(habitat.Office, 0, 100)},
		"C": {iv(habitat.Kitchen, 0, 60)},
		"D": {iv(habitat.Kitchen, 0, 60)},
		"E": {iv(habitat.Biolab, 0, 80)},
		"F": {iv(habitat.Biolab, 0, 80)},
	}
	want := []habitat.RoomID{habitat.Biolab, habitat.Kitchen, habitat.Office}
	for run := 0; run < 50; run++ {
		ms := Summarize(p).Meetings
		if len(ms) != len(want) {
			t.Fatalf("run %d: meetings = %+v", run, ms)
		}
		for i, m := range ms {
			if m.Room != want[i] || m.From != 0 {
				t.Fatalf("run %d: meeting %d = %+v, want room %v from 0", run, i, m, want[i])
			}
		}
	}
}

// spanSweep is the reference the single sweep is held to: it rebuilds the
// sorted occupancy of every room for every span between two consecutive
// event instants and folds all four aggregates span by span.
func spanSweep(p Presence) Summary {
	type ev struct {
		at    time.Duration
		room  habitat.RoomID
		name  string
		enter bool
	}
	var events []ev
	for name, ivs := range p {
		for _, iv := range ivs {
			if iv.Duration() > 0 {
				events = append(events, ev{iv.From, iv.Room, name, true}, ev{iv.To, iv.Room, name, false})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].enter && events[j].enter
	})
	s := Summary{
		Company: map[string]time.Duration{},
		Pairs:   map[Pair]time.Duration{},
		Private: map[Pair]time.Duration{},
	}
	occ := map[habitat.RoomID]map[string]bool{}
	open := map[habitat.RoomID]*Meeting{}
	closeRoom := func(room habitat.RoomID) {
		if m := open[room]; m != nil {
			s.Meetings = append(s.Meetings, *m)
			delete(open, room)
		}
	}
	for i := 0; i < len(events); {
		at := events[i].at
		for ; i < len(events) && events[i].at == at; i++ {
			e := events[i]
			if occ[e.room] == nil {
				occ[e.room] = map[string]bool{}
			}
			if e.enter {
				occ[e.room][e.name] = true
			} else {
				delete(occ[e.room], e.name)
			}
		}
		if i == len(events) {
			break
		}
		to := events[i].at
		for room, people := range occ {
			var names []string
			for n := range people {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) < 2 {
				closeRoom(room)
				continue
			}
			for a := range names {
				s.Company[names[a]] += to - at
				for b := a + 1; b < len(names); b++ {
					s.Pairs[MakePair(names[a], names[b])] += to - at
				}
			}
			if len(names) == 2 {
				s.Private[MakePair(names[0], names[1])] += to - at
			}
			if m := open[room]; m != nil && reflect.DeepEqual(m.Participants, names) {
				m.To = to
				continue
			}
			closeRoom(room)
			open[room] = &Meeting{Room: room, From: at, To: to, Participants: names}
		}
	}
	for room := range open {
		closeRoom(room)
	}
	sort.Slice(s.Meetings, func(i, j int) bool {
		a, b := s.Meetings[i], s.Meetings[j]
		return a.From < b.From || a.From == b.From && a.Room < b.Room
	})
	return s
}

// TestQuickSummarizeMatchesSpanSweep: on random presence — coarse times so
// instants collide, touching and overlapping stays of one person, empty
// and inverted intervals — Summarize equals the span-by-span reference.
func TestQuickSummarizeMatchesSpanSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Presence{}
		for _, name := range []string{"A", "B", "C", "D", "E"}[:1+rng.Intn(5)] {
			for k := rng.Intn(8); k > 0; k-- {
				from := rng.Intn(40)
				p[name] = append(p[name], iv(habitat.RoomID(1+rng.Intn(3)), from, from+rng.Intn(20)-3))
			}
		}
		got, want := Summarize(p), spanSweep(p)
		if !reflect.DeepEqual(got, want) {
			t.Logf("presence %v:\ngot  %+v\nwant %+v", p, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
