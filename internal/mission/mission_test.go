package mission

import (
	"slices"
	"strings"
	"testing"
	"time"

	"icares/internal/crew"
	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/telemetry"
)

func TestDefaultRosterShape(t *testing.T) {
	roster := DefaultRoster()
	if len(roster) != 6 {
		t.Fatalf("roster = %d members", len(roster))
	}
	byName := make(map[string]crew.Traits)
	for _, r := range roster {
		byName[r.Name] = r.Traits
	}
	// C most talkative; A corner-shy and least energetic; D,F > B,E energy.
	if byName["C"].Talkativeness <= byName["F"].Talkativeness {
		t.Error("C not the most talkative")
	}
	if !byName["A"].CornerShy {
		t.Error("A not corner-shy")
	}
	if byName["A"].Energy >= byName["E"].Energy {
		t.Error("A not the least energetic")
	}
	if byName["D"].Energy <= byName["B"].Energy || byName["F"].Energy <= byName["E"].Energy {
		t.Error("D,F not more energetic than B,E")
	}
}

func TestAssignmentIncidents(t *testing.T) {
	a := DefaultAssignment()
	// Normal day.
	if got := a.TrueBadgeFor(AstronautA, 3); got != store.BadgeID(BadgeA) {
		t.Errorf("A day 3 badge = %d", got)
	}
	// Swap day: A and B exchange badges; nominal stays put.
	if got := a.TrueBadgeFor(AstronautA, a.SwapDay); got != store.BadgeID(BadgeB) {
		t.Errorf("A swap-day badge = %d", got)
	}
	if got := a.TrueBadgeFor(AstronautB, a.SwapDay); got != store.BadgeID(BadgeA) {
		t.Errorf("B swap-day badge = %d", got)
	}
	if got := a.NominalBadgeFor(AstronautA, a.SwapDay); got != store.BadgeID(BadgeA) {
		t.Errorf("A nominal badge = %d", got)
	}
	// Reuse: F wears C's badge from day 8.
	if got := a.TrueBadgeFor(AstronautF, a.ReuseDay); got != store.BadgeID(BadgeC) {
		t.Errorf("F reuse-day badge = %d", got)
	}
	if got := a.TrueBadgeFor(AstronautC, a.ReuseDay); got != 0 {
		t.Errorf("dead C badge = %d", got)
	}
	// Inversion.
	if w, ok := a.TrueWearerOf(store.BadgeID(BadgeC), a.ReuseDay); !ok || w != AstronautF {
		t.Errorf("wearer of C's badge on reuse day = %q, %v", w, ok)
	}
	if _, ok := a.TrueWearerOf(store.BadgeID(BadgeF), a.ReuseDay); ok {
		t.Error("failed badge F has a wearer")
	}
}

func TestScenarioTrends(t *testing.T) {
	sc := DefaultScenario(1)
	if sc.TalkTrend(2) <= sc.TalkTrend(14) {
		t.Error("talk trend does not decline")
	}
	if sc.TalkTrend(11) >= sc.TalkTrend(10)/2 {
		t.Errorf("food-shortage day not quiet: %v vs %v", sc.TalkTrend(11), sc.TalkTrend(10))
	}
	if sc.TalkTrend(12) >= sc.TalkTrend(13) {
		t.Error("reprimand day louder than the day after")
	}
	if sc.WearProb(2) <= sc.WearProb(14) {
		t.Error("wear compliance does not decline")
	}
	if sc.WearProb(2) < 0.7 || sc.WearProb(14) > 0.5 {
		t.Errorf("wear endpoints = %v, %v", sc.WearProb(2), sc.WearProb(14))
	}
}

func TestPlannerDailyStructure(t *testing.T) {
	p := NewPlanner(DefaultScenario(2))
	day3 := simtime.StartOfDay(3)

	tests := []struct {
		tod  time.Duration
		kind crew.ActivityKind
		room habitat.RoomID
	}{
		{2 * time.Hour, crew.Sleep, habitat.Bedroom},
		{8*time.Hour + 10*time.Minute, crew.Meal, habitat.Kitchen},
		{12*time.Hour + 40*time.Minute, crew.Meal, habitat.Kitchen},
		{19*time.Hour + 10*time.Minute, crew.Meal, habitat.Kitchen},
		{21*time.Hour + 40*time.Minute, crew.Briefing, habitat.Office},
		{23 * time.Hour, crew.Sleep, habitat.Bedroom},
	}
	for _, tt := range tests {
		obj := p.Objective(AstronautB, day3+tt.tod)
		if obj.Kind != tt.kind {
			t.Errorf("B at %v: kind %v, want %v", tt.tod, obj.Kind, tt.kind)
		}
		if obj.Room != tt.room {
			t.Errorf("B at %v: room %v, want %v", tt.tod, obj.Room, tt.room)
		}
	}
}

func TestPlannerDeathAndConsolation(t *testing.T) {
	p := NewPlanner(DefaultScenario(3))
	// C alive the morning of day 4, dead after 15:00.
	before := p.Objective(AstronautC, simtime.StartOfDay(4)+10*time.Hour)
	if before.Kind == crew.Dead {
		t.Error("C dead before 15:00 on day 4")
	}
	after := p.Objective(AstronautC, DeathTime()+time.Minute)
	if after.Kind != crew.Dead {
		t.Errorf("C at 15:01 day 4: %v", after.Kind)
	}
	if p.Objective(AstronautC, simtime.StartOfDay(9)).Kind != crew.Dead {
		t.Error("C alive on day 9")
	}
	// Consolation gathering at 15:30 on day 4: everyone in the kitchen,
	// quieter than usual.
	at := simtime.StartOfDay(4) + 15*time.Hour + 30*time.Minute
	for _, name := range []string{AstronautA, AstronautB, AstronautD, AstronautE, AstronautF} {
		obj := p.Objective(name, at)
		if obj.Kind != crew.Gathering || obj.Room != habitat.Kitchen {
			t.Errorf("%s during consolation: %v in %v", name, obj.Kind, obj.Room)
		}
		if obj.LoudnessOffset >= 0 {
			t.Errorf("%s consolation loudness offset = %v", name, obj.LoudnessOffset)
		}
	}
	// No gathering on other days at the same time.
	obj := p.Objective(AstronautB, simtime.StartOfDay(5)+15*time.Hour+30*time.Minute)
	if obj.Kind == crew.Gathering {
		t.Error("gathering on day 5")
	}
}

func TestPlannerEVA(t *testing.T) {
	sc := DefaultScenario(4)
	p := NewPlanner(sc)
	day := 5 // D and E on EVA
	at := simtime.StartOfDay(day) + 14*time.Hour
	for _, name := range []string{AstronautD, AstronautE} {
		if obj := p.Objective(name, at); obj.Kind != crew.EVA {
			t.Errorf("%s at EVA time: %v", name, obj.Kind)
		}
		// Prep in the airlock.
		prep := p.Objective(name, simtime.StartOfDay(day)+12*time.Hour+45*time.Minute)
		if prep.Room != habitat.Airlock {
			t.Errorf("%s prep room = %v", name, prep.Room)
		}
	}
	// Others work normally.
	if obj := p.Objective(AstronautB, at); obj.Kind == crew.EVA {
		t.Error("B on EVA while not scheduled")
	}
}

func TestPlannerWorkRoomsAndSideTrips(t *testing.T) {
	p := NewPlanner(DefaultScenario(5))
	morning := simtime.StartOfDay(3) + 9*time.Hour + 5*time.Minute
	// B anchors in the office with supervision side trips.
	b := p.Objective(AstronautB, morning)
	if b.Room != habitat.Office || !b.Anchored {
		t.Errorf("B work = %+v", b)
	}
	if b.SideTripRoom == habitat.NoRoom || b.SideTripProb <= 0 {
		t.Error("commander has no supervision rounds")
	}
	// F in the workshop with kitchen hydration trips.
	f := p.Objective(AstronautF, morning)
	if f.Room != habitat.Workshop || f.SideTripRoom != habitat.Kitchen {
		t.Errorf("F work = %+v", f)
	}
	// A in the office mornings, biolab afternoons.
	if got := p.Objective(AstronautA, morning).Room; got != habitat.Office {
		t.Errorf("A morning room = %v", got)
	}
	// A joins F in the workshop late afternoon.
	afternoon := simtime.StartOfDay(3) + 18*time.Hour + 5*time.Minute
	if got := p.Objective(AstronautA, afternoon).Room; got != habitat.Workshop {
		t.Errorf("A afternoon room = %v", got)
	}
}

func TestPlannerRestroomVisitsExist(t *testing.T) {
	p := NewPlanner(DefaultScenario(6))
	found := 0
	for day := 2; day <= 4; day++ {
		for tod := 8 * time.Hour; tod < 22*time.Hour; tod += time.Minute {
			obj := p.Objective(AstronautD, simtime.StartOfDay(day)+tod)
			if obj.Kind == crew.Restroom {
				found++
				if obj.Wearable {
					t.Fatal("badge wearable in restroom")
				}
			}
		}
	}
	if found == 0 {
		t.Error("no restroom visits in 3 days")
	}
}

func TestRunSmallMission(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	sc := DefaultScenario(42)
	sc.Days = 3
	res, err := Run(Config{Seed: 42, Scenario: sc, CollectTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DaytimeTicks == 0 {
		t.Fatal("no daytime ticks")
	}
	ds := res.Dataset
	if ds.TotalRecords() == 0 {
		t.Fatal("empty dataset")
	}
	// All six personal badges plus the reference must have data.
	for id := BadgeA; id <= ReferenceBadge; id++ {
		if ds.Series(store.BadgeID(id)).Len() == 0 {
			t.Errorf("badge %d has no data", id)
		}
	}
	// Every worn badge must have beacon, mic, accel, wear, and sync
	// records.
	s := ds.Series(store.BadgeID(BadgeB))
	for _, k := range []record.Kind{
		record.KindBeacon, record.KindMic, record.KindAccel,
		record.KindWear, record.KindSync, record.KindEnv, record.KindBattery,
	} {
		if len(s.Kind(k)) == 0 {
			t.Errorf("badge B has no %v records", k)
		}
	}
	// Ground truth collected for all members.
	for _, n := range Names() {
		if len(res.Truth[n]) == 0 {
			t.Errorf("no truth for %s", n)
		}
	}
	// Neighbor and IR traffic must exist.
	totalIR, totalNb := 0, 0
	for _, id := range ds.Badges() {
		totalIR += len(ds.Series(id).Kind(record.KindIR))
		totalNb += len(ds.Series(id).Kind(record.KindNeighbor))
	}
	if totalNb == 0 {
		t.Error("no neighbor observations")
	}
	if totalIR == 0 {
		t.Error("no IR contacts")
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	run := func() int64 {
		sc := DefaultScenario(7)
		sc.Days = 2
		res, err := Run(Config{Seed: 7, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		return res.Dataset.EncodedBytes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed differs: %d vs %d bytes", a, b)
	}
	sc := DefaultScenario(8)
	sc.Days = 2
	res, err := Run(Config{Seed: 8, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.EncodedBytes() == run() {
		t.Log("different seeds produced equal sizes (possible but unlikely)")
	}
}

func TestRunBadConfig(t *testing.T) {
	sc := DefaultScenario(1)
	sc.Days = 3
	if _, err := Run(Config{Scenario: sc, FirstDataDay: 9}); err == nil {
		t.Error("first data day past mission end accepted")
	}
}

func TestEventsSortedAndComplete(t *testing.T) {
	evs := scriptedEvents(DefaultScenario(1))
	if len(evs) < 3 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events not sorted")
		}
	}
}

// TestRunJournalSpans pins the sim-clock spans in the journal: equal seeds
// give byte-identical dumps, each data day is one mission.day span from
// its midnight lasting 24 h, and the run span closes last over all of them.
func TestRunJournalSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	const days = 3
	run := func() (*telemetry.Journal, string) {
		sc := DefaultScenario(7)
		sc.Days = days
		j := telemetry.NewJournal(0)
		if _, err := Run(Config{Seed: 7, Scenario: sc, Tick: time.Minute, Journal: j}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := j.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return j, b.String()
	}
	j, a := run()
	if _, b := run(); a != b {
		t.Fatalf("equal seeds gave different journals:\n%s\n---\n%s", a, b)
	}

	spans := j.Select(telemetry.EventQuery{Kind: "span"})
	const first = 2 // default FirstDataDay
	if len(spans) != days-first+2 {
		t.Fatalf("got %d span events, want %d:\n%s", len(spans), days-first+2, a)
	}
	want := func(e telemetry.Event, name string, start, dur time.Duration) {
		t.Helper()
		fields := []telemetry.Field{
			telemetry.F("span", name), telemetry.F("start", start.String()), telemetry.F("dur", dur.String()),
		}
		if e.Component != "mission" || e.Severity != telemetry.SevDebug || e.At != start+dur ||
			!slices.Equal(e.Fields, fields) {
			t.Errorf("span event %+v, want %s at %v with fields %v", e, name, start+dur, fields)
		}
	}
	for i, e := range spans[:len(spans)-1] {
		want(e, "mission.day", simtime.StartOfDay(first+i), 24*time.Hour)
	}
	want(spans[len(spans)-1], "mission.run", simtime.StartOfDay(first), (days-first+1)*24*time.Hour)
}
