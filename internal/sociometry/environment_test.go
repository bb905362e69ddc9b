package sociometry

import (
	"strings"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/mission"
)

func TestRoomClimatesKitchenWarmest(t *testing.T) {
	p := fixturePipeline(t)
	climates := p.RoomClimates()
	if len(climates) == 0 {
		t.Fatal("no climates")
	}
	var kitchen, office *RoomClimate
	for i := range climates {
		switch climates[i].Room {
		case habitat.Kitchen:
			kitchen = &climates[i]
		case habitat.Office:
			office = &climates[i]
		}
	}
	if kitchen == nil || office == nil {
		t.Fatalf("missing rooms in climates: %+v", climates)
	}
	if kitchen.MeanTempC <= office.MeanTempC {
		t.Errorf("kitchen %.2fC not above office %.2fC", kitchen.MeanTempC, office.MeanTempC)
	}
	// The sensed warmest room (with enough data) is the kitchen — the
	// paper's "cosiest room with the highest temperatures".
	warmest, ok := p.WarmestRoom(30)
	if !ok {
		t.Fatal("no warmest room")
	}
	if warmest.Room != habitat.Kitchen {
		t.Errorf("warmest = %v (%.2fC)", warmest.Room, warmest.MeanTempC)
	}
}

func TestVoiceGenderShareBalanced(t *testing.T) {
	p := fixturePipeline(t)
	share := p.VoiceGenderShare()
	if share.Total() == 0 {
		t.Fatal("no attributed frames")
	}
	// 3 women, 3 men in the roster: the classified share should be
	// broadly balanced (very loose bounds; frame counts follow who talks).
	f := share.FemaleFraction()
	if f < 0.2 || f > 0.8 {
		t.Errorf("female fraction = %.2f (share %+v)", f, share)
	}
	if share.UnknownFrames > share.Total()/2 {
		t.Errorf("too many unknown-gender frames: %+v", share)
	}
}

func TestChangeRateByDay(t *testing.T) {
	p := fixturePipeline(t)
	rates := p.ChangeRateByDay("C")
	// C is tracked on days 2-4 only.
	if len(rates) == 0 {
		t.Fatal("no change rates for C")
	}
	for d, r := range rates {
		if d < 2 || d > 4 {
			t.Errorf("C has change rate on day %d", d)
		}
		if r < 0 || r > 60 {
			t.Errorf("implausible change rate %v on day %d", r, d)
		}
	}
	// Every tracked astronaut has a defined, plausible series.
	for _, name := range []string{"A", "B", "D", "E", "F"} {
		r := p.ChangeRateByDay(name)
		if len(r) == 0 {
			t.Errorf("no change rates for %s", name)
		}
	}
}

func TestMeanSpeedByDay(t *testing.T) {
	p := fixturePipeline(t)
	speeds := p.MeanSpeedByDay("D")
	if len(speeds) == 0 {
		t.Fatal("no speeds")
	}
	for d, v := range speeds {
		if v < 0 || v > 2 {
			t.Errorf("day %d mean speed = %v m/s", d, v)
		}
	}
}

func TestCommunitiesAFTogether(t *testing.T) {
	p := fixturePipeline(t)
	groups := p.Communities(4 * time.Hour)
	if len(groups) == 0 {
		t.Fatal("no communities")
	}
	// A and F (the close pair) must land in the same community.
	same := false
	for _, g := range groups {
		hasA, hasF := false, false
		for _, n := range g {
			if n == "A" {
				hasA = true
			}
			if n == "F" {
				hasF = true
			}
		}
		if hasA && hasF {
			same = true
		}
	}
	if !same {
		t.Errorf("A and F in different communities: %v", groups)
	}
}

func TestReportContainsAllSections(t *testing.T) {
	p := fixturePipeline(t)
	rep := p.Report()
	for _, section := range []string{
		"# Mission sociometric report",
		"## Dataset",
		"## Room transitions",
		"## Mobility",
		"## Speech",
		"## Social structure",
		"## Environment",
		"n/a", // C's company
	} {
		if !strings.Contains(rep, section) {
			t.Errorf("report missing %q", section)
		}
	}
	if len(rep) < 1500 {
		t.Errorf("report suspiciously short: %d bytes", len(rep))
	}
}

func TestWallMassFractionAImpaired(t *testing.T) {
	p := fixturePipeline(t)
	a, err := p.WallMassFraction("A", 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.WallMassFraction("D", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no wall mass for D")
	}
	if a >= d {
		t.Errorf("corner-shy A wall mass %.4f >= D %.4f", a, d)
	}
}

func TestMeetingDominanceCTops(t *testing.T) {
	p := fixturePipeline(t)
	// In the meetings C attended (while alive), C — "an energetic
	// conversationalist" whose "voice dominated during meetings" — must
	// hold the largest attributed speech share.
	totals := make(map[string]float64)
	for _, m := range p.Meetings(15 * time.Minute) {
		if m.From >= mission.DeathTime() {
			continue
		}
		withC := false
		for _, who := range m.Participants {
			if who == "C" {
				withC = true
			}
		}
		if !withC {
			continue
		}
		for who, share := range p.MeetingDominance(m) {
			totals[who] += share * m.Duration().Seconds()
		}
	}
	if len(totals) == 0 {
		t.Fatal("no attributed meeting speech before the death")
	}
	best, bestV := "", 0.0
	for who, v := range totals {
		if v > bestV {
			best, bestV = who, v
		}
	}
	if best != "C" {
		t.Errorf("dominant meeting speaker before death = %s (totals %v)", best, totals)
	}
}
