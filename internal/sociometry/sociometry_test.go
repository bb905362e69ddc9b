package sociometry

import (
	"math"
	"sync"
	"testing"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/proximity"
	"icares/internal/simtime"
	"icares/internal/stats"
	"icares/internal/store"
)

// fixture runs one 6-day mission (through the death and consolation) and
// shares it across tests.
var (
	fixOnce sync.Once
	fixRes  *mission.Result
	fixErr  error
)

func missionFixture(t *testing.T) *mission.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	fixOnce.Do(func() {
		sc := mission.DefaultScenario(1234)
		sc.Days = 6
		fixRes, fixErr = mission.Run(mission.Config{
			Seed: 1234, Scenario: sc, CollectTruth: true,
		})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixRes
}

func newFixturePipeline(t *testing.T) *Pipeline {
	t.Helper()
	res := missionFixture(t)
	src := Source{
		Habitat: res.Habitat,
		Data:    res.Dataset,
		Names:   mission.Names(),
		BadgeFor: func(name string, day int) store.BadgeID {
			return res.Assignment.TrueBadgeFor(name, day)
		},
		VoiceProfiles: voiceProfiles(res),
		FirstDay:      2,
		LastDay:       res.Config.Scenario.Days,
	}
	p, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func voiceProfiles(res *mission.Result) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range res.Roster {
		out[r.Name] = r.Traits.F0Hz
	}
	return out
}

// The fixture pipeline is shared too, so its memoized derivations are
// computed once across tests.
var (
	pipeOnce sync.Once
	pipe     *Pipeline
)

func fixturePipeline(t *testing.T) *Pipeline {
	t.Helper()
	missionFixture(t) // skips in -short mode before the pipeline is built
	pipeOnce.Do(func() { pipe = newFixturePipeline(t) })
	return pipe
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Source{}); err == nil {
		t.Error("empty source accepted")
	}
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     store.NewDataset(),
		Names:    []string{"A"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 5, LastDay: 2,
	}
	if _, err := NewPipeline(src); err == nil {
		t.Error("inverted day range accepted")
	}
}

func TestRectifyClocksConverges(t *testing.T) {
	p := fixturePipeline(t)
	cors, err := p.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(cors) == 0 {
		t.Fatal("no corrections")
	}
	// Personal badges were given offsets up to several seconds; the
	// corrections must have recovered non-trivial offsets for some badge.
	var anyOffset bool
	for id, c := range cors {
		if id == store.BadgeID(mission.ReferenceBadge) {
			continue
		}
		if c.Offset > 200*time.Millisecond || c.Offset < -200*time.Millisecond {
			anyOffset = true
		}
		if c.N > 0 && c.Residual > 50*time.Millisecond {
			t.Errorf("badge %d residual = %v", id, c.Residual)
		}
	}
	if !anyOffset {
		t.Error("no badge needed a clock correction — oscillators not exercised")
	}
	// Idempotent.
	again, err := p.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(cors) {
		t.Error("second rectify differs")
	}
}

func TestTrackRecoversTruthRooms(t *testing.T) {
	p := fixturePipeline(t)
	res := missionFixture(t)
	// Build an index of fixes per astronaut and compare to ground truth at
	// matching times: room accuracy should be near-perfect (the paper:
	// "the room the badge located in was detected perfectly").
	for _, name := range []string{"B", "D"} {
		track := p.Track(name)
		if len(track) < 500 {
			t.Fatalf("%s track too short: %d", name, len(track))
		}
		byTime := make(map[time.Duration]habitat.RoomID, len(track))
		for _, f := range track {
			byTime[f.At] = f.Room
		}
		match, total := 0, 0
		for _, ts := range res.Truth[name] {
			if !ts.Present || !ts.Worn {
				continue
			}
			room, ok := byTime[ts.At-(ts.At%p.locWindow)]
			if !ok {
				continue
			}
			total++
			if room == ts.Room {
				match++
			}
		}
		if total < 200 {
			t.Fatalf("%s: only %d comparable samples", name, total)
		}
		if acc := float64(match) / float64(total); acc < 0.9 {
			t.Errorf("%s room accuracy = %.3f", name, acc)
		}
	}
}

func TestTransitionsKitchenOfficeDominant(t *testing.T) {
	p := fixturePipeline(t)
	m := p.Transitions(nil)
	if m.Total() == 0 {
		t.Fatal("no transitions")
	}
	ko := m.At(habitat.Kitchen, habitat.Office) + m.At(habitat.Office, habitat.Kitchen)
	if ko == 0 {
		t.Fatal("no kitchen<->office passages")
	}
	// The kitchen<->office pair must be among the top pairs (the paper's
	// headline Fig. 2 finding).
	top := m.TopPairs(4)
	found := false
	for _, pair := range top {
		if (pair[0] == habitat.Kitchen && pair[1] == habitat.Office) ||
			(pair[0] == habitat.Office && pair[1] == habitat.Kitchen) {
			found = true
		}
	}
	if !found {
		t.Errorf("kitchen<->office not in top pairs: %v (matrix:\n%s)", top, m)
	}
}

func TestHeatmapShapes(t *testing.T) {
	p := fixturePipeline(t)
	gridA, err := p.Heatmap("A", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gridA.Total() <= 0 {
		t.Fatal("empty heatmap for A")
	}
	gridD, err := p.Heatmap("D", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A is corner-shy: compare mass near walls (cells within 1 m of a room
	// boundary) as a fraction of total, A vs D.
	frac := func(g *stats.Grid2D) float64 {
		hab := habitat.Standard()
		var nearWall float64
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				v := g.At(cx, cy)
				if v == 0 {
					continue
				}
				x := g.MinX + (float64(cx)+0.5)*g.CellSize
				y := g.MinY + (float64(cy)+0.5)*g.CellSize
				room := hab.RoomAt(geometry.Point{X: x, Y: y})
				if room == habitat.NoRoom {
					continue
				}
				r, err := hab.Room(room)
				if err != nil {
					continue
				}
				in := r.Bounds.Inset(1.2)
				if !(x > in.Min.X && x < in.Max.X && y > in.Min.Y && y < in.Max.Y) {
					nearWall += v
				}
			}
		}
		return nearWall / g.Total()
	}
	fa := frac(gridA)
	fd := frac(gridD)
	if fa >= fd {
		t.Errorf("corner-shy A has wall fraction %.3f >= D's %.3f", fa, fd)
	}
	// Log scaling should not change which cells are occupied.
	ls := gridA.LogScaled()
	if (ls.At(0, 0) == 0) != (gridA.At(0, 0) == 0) {
		t.Error("log scaling changed occupancy")
	}
}

func TestWalkingOrdersMatchTraits(t *testing.T) {
	p := fixturePipeline(t)
	wf := make(map[string]float64)
	for _, n := range mission.Names() {
		wf[n] = p.WalkingFraction(n)
	}
	// A lowest; D and F above B and E (paper Fig. 4 and Table I).
	for _, other := range []string{"B", "C", "D", "E", "F"} {
		if wf["A"] >= wf[other] {
			t.Errorf("A walking %.3f >= %s %.3f", wf["A"], other, wf[other])
		}
	}
	for _, hi := range []string{"D", "F"} {
		for _, lo := range []string{"B", "E"} {
			if wf[hi] <= wf[lo] {
				t.Errorf("%s walking %.3f <= %s %.3f", hi, wf[hi], lo, wf[lo])
			}
		}
	}
}

func TestSpeechByDayAndTalking(t *testing.T) {
	p := fixturePipeline(t)
	// C (alive days 2-4) must out-talk everyone on their shared days.
	sbC := p.SpeechByDay("C")
	sbE := p.SpeechByDay("E")
	if sbC[2] <= sbE[2] && sbC[3] <= sbE[3] {
		t.Errorf("C speech (%v) not above E (%v)", sbC, sbE)
	}
	// Talking fraction: C top among the crew.
	tfC := p.TalkingFraction("C")
	for _, n := range []string{"A", "B", "D", "E"} {
		if tf := p.TalkingFraction(n); tf >= tfC {
			t.Errorf("%s talking %.3f >= C %.3f", n, tf, tfC)
		}
	}
}

func TestTableIShape(t *testing.T) {
	p := fixturePipeline(t)
	rows := p.TableI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]TableIRow)
	var maxCompany float64
	for _, r := range rows {
		byName[r.Name] = r
		if !math.IsNaN(r.Company) && r.Company > maxCompany {
			maxCompany = r.Company
		}
	}
	// C's company and authority are n/a (NaN) — died on day 4.
	if !math.IsNaN(byName["C"].Company) || !math.IsNaN(byName["C"].Authority) {
		t.Errorf("C row = %+v, want n/a company/authority", byName["C"])
	}
	// Normalization: someone at 1.0.
	if maxCompany != 1 {
		t.Errorf("max company = %v", maxCompany)
	}
	// All values in [0,1] (or NaN).
	for _, r := range rows {
		for _, v := range []float64{r.Company, r.Authority, r.Talking, r.Walking} {
			if !math.IsNaN(v) && (v < 0 || v > 1.0001) {
				t.Errorf("%s value %v out of range", r.Name, v)
			}
		}
	}
}

func TestPairwiseAFAboveDE(t *testing.T) {
	p := fixturePipeline(t)
	pw := p.Pairwise()
	af := proximity.MakePair("A", "F")
	de := proximity.MakePair("D", "E")
	if pw.All[af] <= pw.All[de] {
		t.Errorf("A-F total %v <= D-E %v", pw.All[af], pw.All[de])
	}
	if pw.Private[af] <= pw.Private[de] {
		t.Errorf("A-F private %v <= D-E %v", pw.Private[af], pw.Private[de])
	}
}

func TestConsolationDetected(t *testing.T) {
	p := fixturePipeline(t)
	present := []string{"A", "B", "D", "E", "F"}
	finding, ok := p.FindConsolation(4, present)
	if !ok {
		t.Fatal("no consolation meeting found on day 4")
	}
	if finding.Meeting.Room != habitat.Kitchen {
		t.Errorf("consolation in %v", finding.Meeting.Room)
	}
	// Starts around 15:20 (between 14:30 and 17:00 to be robust).
	tod := simtime.TimeOfDay(finding.Meeting.From)
	if tod < 14*time.Hour+30*time.Minute || tod > 17*time.Hour {
		t.Errorf("consolation at %v", simtime.ClockString(tod))
	}
	if !finding.QuieterThanLunch {
		t.Errorf("consolation (%.1f dB) not quieter than lunch (%.1f dB)",
			finding.MeetingLoud, finding.LunchLoud)
	}
	// No such meeting on day 3.
	if _, ok := p.FindConsolation(3, mission.Names()); ok {
		t.Error("phantom consolation on day 3")
	}
}

func TestWearStats(t *testing.T) {
	p := fixturePipeline(t)
	w := p.Wear()
	if w.WornFraction <= 0.3 || w.WornFraction >= 1 {
		t.Errorf("worn fraction = %.3f", w.WornFraction)
	}
	if w.ActiveFraction < w.WornFraction {
		t.Errorf("active %.3f < worn %.3f", w.ActiveFraction, w.WornFraction)
	}
	if w.TotalBytes <= 0 {
		t.Error("no data volume")
	}
	if len(w.ByDay) == 0 {
		t.Error("no per-day wear")
	}
}

func TestStaysOfficeLongerThanBiolab(t *testing.T) {
	p := fixturePipeline(t)
	// Compare work sessions (>= 30 min), the paper's "stays": biolab work
	// came in shorter stints than the long office/workshop sessions.
	stays := p.Stays(30 * time.Minute)
	var office, biolab time.Duration
	for _, s := range stays {
		switch s.Room {
		case habitat.Office:
			office = s.Mean
		case habitat.Biolab:
			biolab = s.Mean
		}
	}
	if office == 0 || biolab == 0 {
		t.Fatalf("missing stays: office=%v biolab=%v (%+v)", office, biolab, stays)
	}
	if office <= biolab {
		t.Errorf("office mean stay %v <= biolab %v", office, biolab)
	}
}

func TestTimelineStructure(t *testing.T) {
	p := fixturePipeline(t)
	tl := p.Timeline(4, 5*time.Minute)
	if len(tl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tl.Rows))
	}
	// Lunch: the whole present crew in the kitchen around 12:30-13:00.
	present := []string{"A", "B", "D", "E", "F"}
	gatherings := tl.WholeCrewGatherings(present)
	lunchSeen, consolationSeen := false, false
	for _, g := range gatherings {
		if g.Room != habitat.Kitchen {
			continue
		}
		tod := simtime.TimeOfDay(g.Start)
		if tod >= 12*time.Hour+30*time.Minute && tod < 13*time.Hour {
			lunchSeen = true
		}
		if tod >= 15*time.Hour && tod < 16*time.Hour+30*time.Minute {
			consolationSeen = true
		}
	}
	if !lunchSeen {
		t.Error("lunch gathering not visible in timeline")
	}
	if !consolationSeen {
		t.Error("consolation gathering not visible in timeline")
	}
	// Render returns one line per astronaut plus a header.
	out := tl.Render(12*time.Hour, 17*time.Hour)
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 7 {
		t.Errorf("render lines = %d, want 7", lines)
	}
}

func TestHITSProperties(t *testing.T) {
	names := []string{"A", "B", "C"}
	w := map[proximity.Pair]time.Duration{
		proximity.MakePair("A", "B"): 10 * time.Hour,
		proximity.MakePair("B", "C"): 10 * time.Hour,
		proximity.MakePair("A", "C"): 1 * time.Hour,
	}
	scores := HITS(w, names, 50)
	// B bridges both strong edges: highest authority.
	if scores["B"] != 1 {
		t.Errorf("B authority = %v, want 1 (scores %v)", scores["B"], scores)
	}
	if scores["A"] <= 0 || scores["A"] >= 1 {
		t.Errorf("A authority = %v", scores["A"])
	}
	// Symmetric inputs give symmetric outputs.
	if math.Abs(scores["A"]-scores["C"]) > 1e-9 {
		t.Errorf("A and C differ: %v vs %v", scores["A"], scores["C"])
	}
	// Relabeling invariance.
	w2 := map[proximity.Pair]time.Duration{
		proximity.MakePair("X", "Y"): 10 * time.Hour,
		proximity.MakePair("Y", "Z"): 10 * time.Hour,
		proximity.MakePair("X", "Z"): 1 * time.Hour,
	}
	scores2 := HITS(w2, []string{"X", "Y", "Z"}, 50)
	if math.Abs(scores2["Y"]-scores["B"]) > 1e-9 {
		t.Error("HITS not relabeling-invariant")
	}
	// Empty graph: all zeros, no panic.
	empty := HITS(nil, names, 10)
	for n, v := range empty {
		if v != 0 {
			t.Errorf("empty graph authority %s = %v", n, v)
		}
	}
}

func TestSpeechTrendDirection(t *testing.T) {
	p := fixturePipeline(t)
	slope, _ := p.SpeechTrend()
	// Only 5 data days in the fixture, but the scripted trend plus C's
	// death should already push the slope non-positive.
	if slope > 0.02 {
		t.Errorf("speech slope = %v, expected declining-ish", slope)
	}
}

func TestNominalVsTrueAssignment(t *testing.T) {
	// Under the nominal assignment the swap day confuses A and B: their
	// records swap, so A's walking on the swap day reflects B's behaviour.
	res := missionFixture(t)
	if res.Config.Scenario.Days < res.Assignment.SwapDay {
		t.Skip("fixture too short for the swap day")
	}
	t.Skip("swap day (6) equals fixture length; covered by the full-mission bench")
}
