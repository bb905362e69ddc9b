package sociometry

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/proximity"
	"icares/internal/record"
	"icares/internal/speech"
	"icares/internal/store"
)

// fingerprint condenses a pipeline's headline results into one comparable
// string: the concurrency tests assert every goroutine sees the same one.
func fingerprint(p *Pipeline) string {
	wf := make([]string, 0, len(p.src.Names))
	for _, n := range p.src.Names {
		wf = append(wf, fmt.Sprintf("%s=%.9f", n, p.WalkingFraction(n)))
	}
	return fmt.Sprintf("trans=%d table=%+v walk=%v presence=%d",
		p.Transitions(nil).Total(), p.TableI(), wf, len(p.Presence()))
}

// TestConcurrentHammer drives one cold pipeline from many goroutines at
// once — every memoized derivation and the crew-level analyses — and
// checks that (a) all goroutines observe identical results and (b) each
// derivation was computed exactly once per key despite the contention.
// Run with -race to exercise the synchronization.
func TestConcurrentHammer(t *testing.T) {
	p := newFixturePipeline(t)
	names := p.src.Names

	const goroutines = 12
	results := make([]string, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Touch the per-astronaut derivations in a goroutine-dependent
			// order so the cache keys are hit from all sides.
			for i := range names {
				n := names[(i+g)%len(names)]
				p.RecordsFor(n)
				p.WornRanges(n)
				p.Track(n)
				p.Intervals(n)
				p.Frames(n)
				p.walkingSamples(n)
				for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
					p.wearerOf(p.src.BadgeFor(n, day), day)
				}
			}
			results[g] = fingerprint(p)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Errorf("goroutine %d saw different results:\n%s\nvs\n%s",
				g, results[g], results[0])
		}
	}

	n := int64(len(names))
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"records", p.recordsCache.computeCount(), n},
		{"worn", p.wornCache.computeCount(), n},
		{"track", p.trackCache.computeCount(), n},
		{"intervals", p.intervalCache.computeCount(), n},
		{"frames", p.framesCache.computeCount(), n},
		{"activity", p.activityCache.computeCount(), n},
		{"crew", p.crewCache.computeCount(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s computed %d times, want %d", c.name, c.got, c.want)
		}
	}
}

// TestFramesComputedOncePerAstronaut pins the memoization win behind the
// meeting analyses: MeetingLoudness and MeetingDominance over every
// meeting of the mission must not re-derive any astronaut's mic frames,
// and the memoized path must produce the same numbers as a direct,
// uncached derivation.
func TestFramesComputedOncePerAstronaut(t *testing.T) {
	p := newFixturePipeline(t)
	meetings := p.Meetings(10 * time.Minute)
	if len(meetings) == 0 {
		t.Fatal("no meetings in fixture")
	}
	loud := make([]float64, len(meetings))
	for i, m := range meetings {
		loud[i] = p.MeetingLoudness(m)
		p.MeetingDominance(m)
	}
	got := p.framesCache.computeCount()
	if n := int64(len(p.src.Names)); got == 0 || got > n {
		t.Errorf("frames computed %d times across %d meetings, want 1..%d",
			got, len(meetings), n)
	}

	// Results unchanged: recompute the first meeting's loudness from
	// scratch, bypassing the cache.
	m := meetings[0]
	var sum float64
	var cnt int
	for _, name := range m.Participants {
		c := record.NewCursor(p.RecordsFor(name))
		frames := speech.FramesCursor(nil, &c, speech.DefaultConfig(), p.WornRanges(name))
		for _, f := range frames {
			if f.At < m.From || f.At >= m.To || !f.Speech {
				continue
			}
			sum += f.LoudDB
			cnt++
		}
	}
	want := 0.0
	if cnt > 0 {
		want = sum / float64(cnt)
	}
	if loud[0] != want {
		t.Errorf("memoized meeting loudness %v != direct %v", loud[0], want)
	}
}

// TestWithMinDwell checks the dwell option reaches the interval derivation:
// disabling the filter keeps the short stays the default drops, while the
// tracks it filters stay the same.
func TestWithMinDwell(t *testing.T) {
	def := fixturePipeline(t)
	raw, err := NewPipeline(fixtureSource(t, missionFixture(t).Dataset), WithMinDwell(0))
	if err != nil {
		t.Fatal(err)
	}
	filtered, unfiltered := 0, 0
	for _, name := range def.src.Names {
		if !reflect.DeepEqual(raw.Track(name), def.Track(name)) {
			t.Errorf("%s: WithMinDwell changed the track", name)
		}
		filtered += len(def.Intervals(name))
		unfiltered += len(raw.Intervals(name))
	}
	if unfiltered <= filtered {
		t.Errorf("WithMinDwell(0) gave %d intervals, default %d; want more", unfiltered, filtered)
	}
}

// TestWearerInverseMatchesLinearScan pins the per-day BadgeID→astronaut
// table NewPipeline builds against the linear BadgeFor scan it replaced,
// including its first-in-crew-order-wins tie-break.
func TestWearerInverseMatchesLinearScan(t *testing.T) {
	p := fixturePipeline(t)
	for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
		for _, name := range p.src.Names {
			id := p.src.BadgeFor(name, day)
			if id == 0 {
				continue
			}
			want := ""
			for _, other := range p.src.Names {
				if p.src.BadgeFor(other, day) == id {
					want = other
					break
				}
			}
			got, ok := p.wearerOf(id, day)
			if !ok || got != want {
				t.Errorf("day %d badge %d: wearerOf = %q,%v, linear scan = %q",
					day, id, got, ok, want)
			}
		}
		if got, ok := p.wearerOf(store.BadgeID(0xFFF0), day); ok {
			t.Errorf("day %d: unknown badge attributed to %q", day, got)
		}
	}
}

// TestWalkingIgnoresUnwornPeriods builds a synthetic day where the badge
// records vigorous movement while worn and lies still after being taken
// off: the stationary unworn windows must not deflate the walking
// fraction, and the per-day series must agree with the mission total.
func TestWalkingIgnoresUnwornPeriods(t *testing.T) {
	ds := store.NewDataset()
	s := ds.Series(7)
	h := time.Hour
	s.Append(record.NewWear(1*h, true))
	s.Append(record.NewWear(2*h, false))
	// Worn hour: alternating high-amplitude accel — every window walks.
	for ts := 1 * h; ts < 2*h; ts += 2 * time.Second {
		ax := int16(300)
		if (ts/(2*time.Second))%2 == 0 {
			ax = -300
		}
		s.Append(record.NewAccel(ts, ax, ax, 1000))
	}
	// Unworn hour: the badge lies flat and still.
	for ts := 2 * h; ts < 3*h; ts += 2 * time.Second {
		s.Append(record.NewAccel(ts, 0, 0, 1000))
	}

	p, err := NewPipeline(Source{
		Habitat:  habitat.Standard(),
		Data:     ds,
		Names:    []string{"Z"},
		BadgeFor: func(string, int) store.BadgeID { return 7 },
		FirstDay: 1, LastDay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.WalkingFraction("Z"); got != 1.0 {
		t.Errorf("walking fraction = %v, want 1.0 (unworn stillness leaked in)", got)
	}
	byDay := p.WalkingByDay("Z")
	if got := byDay[1]; got != 1.0 {
		t.Errorf("day-1 walking fraction = %v, want 1.0", byDay[1])
	}
}

// TestNeverWornAstronautEmpty: an astronaut whose badge records beacons,
// mic frames and accel bursts all day but is never worn gets no fixes,
// frames or activity samples, on a batch pipeline and on a following one.
// Their crewmate, whose badge records the same day worn, gets all three,
// so the fixture is not empty by construction.
func TestNeverWornAstronautEmpty(t *testing.T) {
	hab := habitat.Standard()
	beacon := hab.Beacons()[0]
	ds := store.NewDataset()
	for _, id := range []store.BadgeID{7, 8} {
		s := ds.Series(id)
		if id == 8 {
			s.Append(record.NewWear(0, true))
		}
		for ts := time.Duration(0); ts < 2*time.Hour; ts += time.Second {
			ax := int16(300 - 600*(ts/time.Second%2))
			s.Append(record.NewAccel(ts, ax, ax, 1000))
			if ts%(15*time.Second) == 0 {
				s.Append(record.NewBeacon(ts, uint16(beacon.ID), -55))
				s.Append(record.NewMic(ts, true, 70, 140, 0.5))
			}
		}
	}
	src := Source{
		Habitat: hab,
		Data:    ds,
		Names:   []string{"N", "W"},
		BadgeFor: func(name string, _ int) store.BadgeID {
			if name == "N" {
				return 7
			}
			return 8
		},
		FirstDay: 1, LastDay: 1,
	}
	for _, follow := range []bool{false, true} {
		p, err := NewPipeline(src)
		if err != nil {
			t.Fatal(err)
		}
		if follow {
			defer p.Follow()()
		}
		for _, c := range []struct {
			name string
			want bool // non-empty
		}{{"N", false}, {"W", true}} {
			fixes, frames, samples := len(p.Track(c.name)), len(p.Frames(c.name)), len(p.walkingSamples(c.name))
			if (fixes > 0) != c.want || (frames > 0) != c.want || (samples > 0) != c.want {
				t.Errorf("following=%v %s: %d fixes, %d frames, %d samples; want all non-empty = %v",
					follow, c.name, fixes, frames, samples, c.want)
			}
		}
	}
}

// TestResultsIdenticalAcrossParallelism checks the determinism guarantee:
// a sequential pipeline and a wide one produce byte-identical reports and
// identical Table I rows for the same dataset.
func TestResultsIdenticalAcrossParallelism(t *testing.T) {
	seq := newFixturePipeline(t)
	seq.Parallelism = 1
	par := newFixturePipeline(t)
	par.Parallelism = 8

	a, b := seq.Report(), par.Report()
	if a != b {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 40
		if lo < 0 {
			lo = 0
		}
		t.Errorf("reports diverge at byte %d: %q vs %q",
			i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
	}
	if ta, tb := fmt.Sprintf("%+v", seq.TableI()), fmt.Sprintf("%+v", par.TableI()); ta != tb {
		t.Errorf("Table I differs:\n%s\nvs\n%s", ta, tb)
	}
}

// TestResultsDoNotAliasMemos: Pairwise maps and Meetings participants are
// copies, so a caller that modifies them changes nothing later queries see.
func TestResultsDoNotAliasMemos(t *testing.T) {
	p := newFixturePipeline(t)
	pw := p.Pairwise()
	ms := p.Meetings(10 * time.Minute)
	if len(pw.All) == 0 || len(ms) == 0 {
		t.Fatal("fixture has no pairs or meetings")
	}
	wantPW := PairwiseReport{All: maps.Clone(pw.All), Private: maps.Clone(pw.Private), IR: maps.Clone(pw.IR)}
	wantMS := make([]proximity.Meeting, len(ms))
	for i, m := range ms {
		m.Participants = slices.Clone(m.Participants)
		wantMS[i] = m
	}

	for pair := range pw.All {
		pw.All[pair] = -1
	}
	pw.All[proximity.MakePair("X", "Y")] = time.Hour
	ms[0].Participants[0] = "Z"
	ms[len(ms)-1].Participants = ms[len(ms)-1].Participants[:1]

	if got := p.Pairwise(); !reflect.DeepEqual(got, wantPW) {
		t.Errorf("Pairwise changed after its result was modified")
	}
	if got := p.Meetings(10 * time.Minute); !reflect.DeepEqual(got, wantMS) {
		t.Errorf("Meetings changed after its result was modified")
	}
}
