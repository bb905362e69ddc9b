package crew

import (
	"errors"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/stats"
)

// scriptPlanner returns a fixed objective per member, switchable mid-test.
type scriptPlanner struct {
	objs map[string]Objective
}

func (p *scriptPlanner) Objective(name string, _ time.Duration) Objective {
	return p.objs[name]
}

func workObj(room habitat.RoomID) Objective {
	return Objective{Kind: Work, Room: room, TalkScale: 0.2, Wearable: true, Anchored: true}
}

func mealObj() Objective {
	return Objective{Kind: Meal, Room: habitat.Kitchen, TalkScale: 1.0, Wearable: true}
}

// defaultNames are the member names of defaultRoster.
var defaultNames = []string{"A", "B", "C"}

func defaultRoster() []Roster {
	mk := func(name string, energy, talk float64) Roster {
		return Roster{Name: name, Traits: Traits{
			Energy: energy, Talkativeness: talk, F0Hz: 140, LoudnessDB: 72,
		}}
	}
	return []Roster{
		mk("A", 0.3, 0.5),
		mk("B", 0.5, 0.6),
		mk("C", 0.8, 0.95),
	}
}

func newEngine(t *testing.T, p Planner, roster []Roster, seed uint64) *Engine {
	t.Helper()
	e, err := NewEngine(habitat.Standard(), p, roster, nil, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runFor(e *Engine, from, dur, dt time.Duration) time.Duration {
	for at := from; at < from+dur; at += dt {
		e.Tick(at, dt)
	}
	return from + dur
}

func TestNewEngineValidation(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{}}
	if _, err := NewEngine(habitat.Standard(), nil, defaultRoster(), nil, stats.NewRNG(1)); !errors.Is(err, ErrNilPlanner) {
		t.Errorf("nil planner: %v", err)
	}
	if _, err := NewEngine(habitat.Standard(), p, nil, nil, stats.NewRNG(1)); !errors.Is(err, ErrNoMembers) {
		t.Errorf("no members: %v", err)
	}
	dup := []Roster{{Name: "A"}, {Name: "A"}}
	if _, err := NewEngine(habitat.Standard(), p, dup, nil, stats.NewRNG(1)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestMembersReachAssignedRooms(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": workObj(habitat.Office),
		"B": workObj(habitat.Biolab),
		"C": workObj(habitat.Workshop),
	}}
	e := newEngine(t, p, defaultRoster(), 7)
	runFor(e, 0, 3*time.Minute, 5*time.Second)
	want := map[string]habitat.RoomID{
		"A": habitat.Office, "B": habitat.Biolab, "C": habitat.Workshop,
	}
	for name, room := range want {
		s, ok := e.State(name)
		if !ok {
			t.Fatalf("no state for %s", name)
		}
		if s.Room != room {
			t.Errorf("%s in %v, want %v", name, s.Room, room)
		}
		if !s.Present {
			t.Errorf("%s not present", name)
		}
	}
}

func TestWalkingDuringTransit(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": workObj(habitat.Office),
		"B": workObj(habitat.Office),
		"C": workObj(habitat.Office),
	}}
	e := newEngine(t, p, defaultRoster(), 8)
	// First tick: everyone should be en route (they start in the atrium).
	e.Tick(0, 5*time.Second)
	s, _ := e.State("A")
	if !s.Walking {
		t.Error("A not walking right after mission start")
	}
	// After settling, walking should mostly stop.
	runFor(e, 5*time.Second, 5*time.Minute, 5*time.Second)
	walkTicks := 0
	for i := 0; i < 60; i++ {
		e.Tick(time.Duration(5*60+5*i)*time.Second, 5*time.Second)
		if s, _ := e.State("A"); s.Walking {
			walkTicks++
		}
	}
	if walkTicks > 30 {
		t.Errorf("A walking %d/60 ticks while anchored", walkTicks)
	}
}

func TestDeadMemberAbsent(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": workObj(habitat.Office),
		"B": workObj(habitat.Office),
		"C": {Kind: Dead},
	}}
	e := newEngine(t, p, defaultRoster(), 9)
	runFor(e, 0, time.Minute, 5*time.Second)
	s, _ := e.State("C")
	if s.Present || s.Room != habitat.NoRoom || s.Wearable {
		t.Errorf("dead member state = %+v", s)
	}
}

func TestEVAAbsentAndReturn(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": {Kind: EVA},
		"B": workObj(habitat.Office),
		"C": workObj(habitat.Office),
	}}
	e := newEngine(t, p, defaultRoster(), 10)
	runFor(e, 0, time.Minute, 5*time.Second)
	s, _ := e.State("A")
	if s.Present {
		t.Fatal("A present during EVA")
	}
	// Return: A re-enters via the airlock.
	p.objs["A"] = workObj(habitat.Office)
	e.Tick(time.Minute, 5*time.Second)
	s, _ = e.State("A")
	if !s.Present {
		t.Fatal("A did not return")
	}
	// Should be at/near the airlock initially.
	if s.Room != habitat.Airlock && s.Room != habitat.Atrium {
		t.Errorf("A re-entered in %v", s.Room)
	}
	// Eventually back at work.
	runFor(e, time.Minute+5*time.Second, 4*time.Minute, 5*time.Second)
	s, _ = e.State("A")
	if s.Room != habitat.Office {
		t.Errorf("A in %v after return, want office", s.Room)
	}
}

func TestMealClustersMembersWithinConversationRange(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": mealObj(), "B": mealObj(), "C": mealObj(),
	}}
	e := newEngine(t, p, defaultRoster(), 11)
	runFor(e, 0, 5*time.Minute, 5*time.Second)
	var states []State
	for _, n := range defaultNames {
		s, _ := e.State(n)
		if s.Room != habitat.Kitchen {
			t.Fatalf("%s in %v during meal", n, s.Room)
		}
		states = append(states, s)
	}
	for i := range states {
		for j := i + 1; j < len(states); j++ {
			if d := states[i].Pos.Dist(states[j].Pos); d > 3.0 {
				t.Errorf("meal pair %d-%d distance %.1f m", i, j, d)
			}
		}
	}
}

func TestConversationHappensAtMeals(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": mealObj(), "B": mealObj(), "C": mealObj(),
	}}
	e := newEngine(t, p, defaultRoster(), 12)
	runFor(e, 0, 3*time.Minute, 5*time.Second) // settle
	speakTicks := make(map[string]int)
	total := 0
	for i := 0; i < 720; i++ { // 1 h of meal
		e.Tick(time.Duration(180+5*i)*time.Second, 5*time.Second)
		anySpeak := false
		for _, n := range defaultNames {
			s, _ := e.State(n)
			if s.Speaking {
				speakTicks[n]++
				anySpeak = true
				if s.LoudnessDB < 55 || s.LoudnessDB > 90 {
					t.Fatalf("%s loudness %v", n, s.LoudnessDB)
				}
			}
		}
		if anySpeak {
			total++
		}
	}
	if total < 100 {
		t.Fatalf("speech in only %d/720 meal ticks", total)
	}
	// C (talkativeness 0.95) must out-talk A (0.5).
	if speakTicks["C"] <= speakTicks["A"] {
		t.Errorf("C spoke %d, A spoke %d; want C > A", speakTicks["C"], speakTicks["A"])
	}
}

func TestQuietContextSilencesConversation(t *testing.T) {
	silent := Objective{Kind: Meal, Room: habitat.Kitchen, TalkScale: 0, Wearable: true}
	p := &scriptPlanner{objs: map[string]Objective{
		"A": silent, "B": silent, "C": silent,
	}}
	e := newEngine(t, p, defaultRoster(), 13)
	runFor(e, 0, 3*time.Minute, 5*time.Second)
	spoke := 0
	for i := 0; i < 360; i++ {
		e.Tick(time.Duration(180+5*i)*time.Second, 5*time.Second)
		for _, n := range defaultNames {
			if s, _ := e.State(n); s.Speaking {
				spoke++
			}
		}
	}
	// TalkScale 0 leaves only the base floor; expect near silence.
	if spoke > 120 {
		t.Errorf("spoke %d ticks under TalkScale 0", spoke)
	}
}

func TestAffinityBoostsDyadConversation(t *testing.T) {
	roster := defaultRoster()[:2] // A and B alone
	obj := Objective{Kind: Break, Room: habitat.Kitchen, TalkScale: 0.5, Wearable: true}
	count := func(seed uint64, affinity map[[2]string]float64) int {
		p := &scriptPlanner{objs: map[string]Objective{"A": obj, "B": obj}}
		e, err := NewEngine(habitat.Standard(), p, roster, affinity, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		runFor(e, 0, 3*time.Minute, 5*time.Second)
		n := 0
		for i := 0; i < 720; i++ {
			e.Tick(time.Duration(180+5*i)*time.Second, 5*time.Second)
			for _, name := range []string{"A", "B"} {
				if s, _ := e.State(name); s.Speaking {
					n++
				}
			}
		}
		return n
	}
	var base, boosted int
	for seed := uint64(0); seed < 5; seed++ {
		base += count(20+seed, nil)
		boosted += count(20+seed, map[[2]string]float64{{"A", "B"}: 2.5})
	}
	if boosted <= base {
		t.Errorf("affinity did not boost conversation: base %d, boosted %d", base, boosted)
	}
}

func TestAudibleAt(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": mealObj(), "B": mealObj(), "C": mealObj(),
	}}
	e := newEngine(t, p, defaultRoster(), 14)
	runFor(e, 0, 3*time.Minute, 5*time.Second)
	heard := false
	kitchen, err := habitat.Standard().Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	office, err := habitat.Standard().Center(habitat.Office)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 720 && !heard; i++ {
		e.Tick(time.Duration(180+5*i)*time.Second, 5*time.Second)
		if loud, f0, ok := e.AudibleAt(kitchen); ok {
			heard = true
			if loud < 40 || loud > 90 {
				t.Errorf("audible loudness %v", loud)
			}
			if f0 != 140 {
				t.Errorf("f0 = %v", f0)
			}
			// Another room must hear nothing.
			if _, _, ok := e.AudibleAt(office); ok {
				t.Error("speech audible across rooms")
			}
		}
	}
	if !heard {
		t.Error("never heard meal conversation at kitchen center")
	}
}

func TestCornerShyStaysAwayFromWalls(t *testing.T) {
	shy := Roster{Name: "A", Traits: Traits{Energy: 0.6, Talkativeness: 0.5, CornerShy: true}}
	bold := Roster{Name: "D", Traits: Traits{Energy: 0.6, Talkativeness: 0.5}}
	p := &scriptPlanner{objs: map[string]Objective{
		"A": {Kind: Work, Room: habitat.Biolab, TalkScale: 0.1, Wearable: true},
		"D": {Kind: Work, Room: habitat.Biolab, TalkScale: 0.1, Wearable: true},
	}}
	e, err := NewEngine(habitat.Standard(), p, []Roster{shy, bold}, nil, stats.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	hab := habitat.Standard()
	room, err := hab.Room(habitat.Biolab)
	if err != nil {
		t.Fatal(err)
	}
	minDistShy, minDistBold := 1e9, 1e9
	wallDist := func(s State) float64 {
		b := room.Bounds
		d := s.Pos.X - b.Min.X
		if v := b.Max.X - s.Pos.X; v < d {
			d = v
		}
		if v := s.Pos.Y - b.Min.Y; v < d {
			d = v
		}
		if v := b.Max.Y - s.Pos.Y; v < d {
			d = v
		}
		return d
	}
	for at := time.Duration(0); at < 4*time.Hour; at += 5 * time.Second {
		e.Tick(at, 5*time.Second)
		sa, _ := e.State("A")
		sd, _ := e.State("D")
		if sa.Room == habitat.Biolab && !sa.Walking {
			if d := wallDist(sa); d < minDistShy {
				minDistShy = d
			}
		}
		if sd.Room == habitat.Biolab && !sd.Walking {
			if d := wallDist(sd); d < minDistBold {
				minDistBold = d
			}
		}
	}
	if minDistShy < 1.5 {
		t.Errorf("corner-shy A got within %.2f m of a wall", minDistShy)
	}
	if minDistBold >= 1.5 {
		t.Errorf("bold D never got near a wall (min %.2f m)", minDistBold)
	}
}

func TestSideTripsVisitKitchen(t *testing.T) {
	obj := workObj(habitat.Office)
	obj.SideTripRoom = habitat.Kitchen
	obj.SideTripProb = 0.002 // per second
	p := &scriptPlanner{objs: map[string]Objective{
		"A": obj, "B": obj, "C": obj,
	}}
	e := newEngine(t, p, defaultRoster(), 16)
	visits := 0
	inKitchen := make(map[string]bool)
	for at := time.Duration(0); at < 6*time.Hour; at += 5 * time.Second {
		e.Tick(at, 5*time.Second)
		for _, n := range defaultNames {
			s, _ := e.State(n)
			now := s.Room == habitat.Kitchen
			if now && !inKitchen[n] {
				visits++
			}
			inKitchen[n] = now
		}
	}
	if visits == 0 {
		t.Error("no hydration side trips in 6 h")
	}
}

func TestStateUnknownMember(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{}}
	e := newEngine(t, p, defaultRoster(), 17)
	if _, ok := e.State("Z"); ok {
		t.Error("state for unknown member")
	}
}

func TestActivityKindString(t *testing.T) {
	if Work.String() != "work" || Gathering.String() != "gathering" {
		t.Error("activity names wrong")
	}
	if ActivityKind(99).String() != "activity(99)" {
		t.Error("unknown activity name")
	}
}

func TestSelfTalkSoloSpeech(t *testing.T) {
	// Astronaut A's screen reader: audible speech while alone in a room.
	reader := Roster{Name: "A", Traits: Traits{
		Energy: 0.2, Talkativeness: 0.5, SelfTalk: 0.9, F0Hz: 208,
	}}
	quiet := Roster{Name: "E", Traits: Traits{
		Energy: 0.2, Talkativeness: 0.5, SelfTalk: 0, F0Hz: 112,
	}}
	p := &scriptPlanner{objs: map[string]Objective{
		"A": {Kind: Work, Room: habitat.Office, TalkScale: 1, Wearable: true, Anchored: true},
		"E": {Kind: Work, Room: habitat.Storage, TalkScale: 1, Wearable: true, Anchored: true},
	}}
	e, err := NewEngine(habitat.Standard(), p, []Roster{reader, quiet}, nil, stats.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	runFor(e, 0, 3*time.Minute, 5*time.Second)
	talkA, talkE := 0, 0
	for i := 0; i < 720; i++ {
		e.Tick(time.Duration(180+5*i)*time.Second, 5*time.Second)
		if s, _ := e.State("A"); s.Speaking {
			talkA++
			if s.F0Hz != 208 {
				t.Fatalf("A self-talk f0 = %v", s.F0Hz)
			}
		}
		if s, _ := e.State("E"); s.Speaking {
			talkE++
		}
	}
	if talkA == 0 {
		t.Error("screen reader never audible")
	}
	if talkE > talkA/4 {
		t.Errorf("zero-SelfTalk E spoke %d vs A %d", talkE, talkA)
	}
}

func TestSleepSendsToBedroomNotWearable(t *testing.T) {
	p := &scriptPlanner{objs: map[string]Objective{
		"A": {Kind: Sleep, Room: habitat.Bedroom},
		"B": {Kind: Sleep, Room: habitat.Bedroom},
		"C": {Kind: Sleep, Room: habitat.Bedroom},
	}}
	e := newEngine(t, p, defaultRoster(), 45)
	runFor(e, 0, 5*time.Minute, 5*time.Second)
	s, _ := e.State("A")
	if s.Room != habitat.Bedroom {
		t.Errorf("sleeping A in %v", s.Room)
	}
	if s.Wearable {
		t.Error("badge wearable during sleep")
	}
}
