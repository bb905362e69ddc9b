package sociometry

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"icares/internal/habitat"
	"icares/internal/proximity"
	"icares/internal/simtime"
)

// TimelineBin is one time bin of the Fig. 5 day timeline for one astronaut:
// where they were and how much speech their badge detected.
type TimelineBin struct {
	Start          time.Duration // absolute mission time of the bin start
	Room           habitat.RoomID
	SpeechFraction float64
	Frames         int
}

// DayTimeline is the Fig. 5 result: per astronaut, the binned location and
// speech activity across one mission day.
type DayTimeline struct {
	Day     int
	BinSize time.Duration
	Rows    map[string][]TimelineBin
}

// Timeline computes the day timeline with the given bin size (Fig. 5 reads
// well at 5-10 minutes).
func (p *Pipeline) Timeline(day int, binSize time.Duration) DayTimeline {
	if binSize <= 0 {
		binSize = 5 * time.Minute
	}
	start := simtime.StartOfDay(day)
	end := simtime.StartOfDay(day + 1)
	nBins := int((end - start) / binSize)
	out := DayTimeline{Day: day, BinSize: binSize, Rows: make(map[string][]TimelineBin)}

	// Each astronaut's row is independent: bin them in parallel, then
	// assemble the map sequentially.
	rows := make([][]TimelineBin, len(p.src.Names))
	p.forEach(len(p.src.Names), func(ni int) {
		name := p.src.Names[ni]
		bins := make([]TimelineBin, nBins)
		for i := range bins {
			bins[i].Start = start + time.Duration(i)*binSize
			bins[i].Room = habitat.NoRoom
		}
		// Dominant room per bin from the track.
		occupancy := make([]map[habitat.RoomID]int, nBins)
		for _, f := range p.Track(name) {
			if f.At < start || f.At >= end {
				continue
			}
			i := int((f.At - start) / binSize)
			if occupancy[i] == nil {
				occupancy[i] = make(map[habitat.RoomID]int)
			}
			occupancy[i][f.Room]++
		}
		for i, occ := range occupancy {
			best, bestN := habitat.NoRoom, 0
			for r, n := range occ {
				if n > bestN || (n == bestN && r < best) {
					best, bestN = r, n
				}
			}
			bins[i].Room = best
		}
		// Speech fraction per bin.
		type acc struct{ speech, total int }
		accs := make([]acc, nBins)
		for _, f := range p.Frames(name) {
			if f.At < start || f.At >= end {
				continue
			}
			i := int((f.At - start) / binSize)
			accs[i].total++
			if f.Speech {
				accs[i].speech++
			}
		}
		for i, a := range accs {
			bins[i].Frames = a.total
			if a.total > 0 {
				bins[i].SpeechFraction = float64(a.speech) / float64(a.total)
			}
		}
		rows[ni] = bins
	})
	for i, name := range p.src.Names {
		out.Rows[name] = rows[i]
	}
	return out
}

// Render draws the timeline as text: one row per astronaut, one column per
// bin within [fromTod, toTod), with the room initial (uppercase when speech
// was detected in the bin).
func (tl DayTimeline) Render(fromTod, toTod time.Duration) string {
	dayStart := simtime.StartOfDay(tl.Day)
	var names []string
	for n := range tl.Rows {
		names = append(names, n)
	}
	slices.Sort(names)
	var b strings.Builder
	fmt.Fprintf(&b, "day %d, %s-%s, one column per %s\n",
		tl.Day, simtime.ClockString(fromTod), simtime.ClockString(toTod), tl.BinSize)
	for _, name := range names {
		fmt.Fprintf(&b, "%-3s ", name)
		for _, bin := range tl.Rows[name] {
			tod := bin.Start - dayStart
			if tod < fromTod || tod >= toTod {
				continue
			}
			ch := roomChar(bin.Room)
			if bin.SpeechFraction >= 0.2 {
				ch = upper(ch)
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func roomChar(r habitat.RoomID) byte {
	switch r {
	case habitat.Kitchen:
		return 'k'
	case habitat.Office:
		return 'o'
	case habitat.Biolab:
		return 'b'
	case habitat.Workshop:
		return 'w'
	case habitat.Storage:
		return 's'
	case habitat.Bedroom:
		return 'd'
	case habitat.Atrium:
		return 'a'
	case habitat.Airlock:
		return 'l'
	case habitat.Restroom:
		return 'r'
	case habitat.Gym:
		return 'g'
	default:
		return '.'
	}
}

func upper(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 32
	}
	return c
}

// ConsolationFinding packages the pipeline's detection of the day-4
// incident: the unplanned whole-crew meeting after C's death and its
// loudness relative to lunch.
type ConsolationFinding struct {
	Meeting          proximity.Meeting
	MeetingLoud      float64
	LunchLoud        float64
	QuieterThanLunch bool
}

// FindConsolation looks for an unplanned whole-crew kitchen meeting in the
// afternoon window of the given day and compares its loudness to that day's
// lunch. present lists the astronauts still in the mission that afternoon.
func (p *Pipeline) FindConsolation(day int, present []string) (ConsolationFinding, bool) {
	dayStart := simtime.StartOfDay(day)
	afternoon := dayStart + 14*time.Hour
	evening := dayStart + 18*time.Hour
	lunchFrom := dayStart + 12*time.Hour + 30*time.Minute
	lunchTo := lunchFrom + 30*time.Minute

	var finding ConsolationFinding
	found := false
	for _, m := range p.Meetings(10 * time.Minute) {
		if m.Room != habitat.Kitchen || m.From < afternoon || m.From >= evening {
			continue
		}
		if len(m.Participants) < len(present) {
			continue
		}
		finding.Meeting = m
		finding.MeetingLoud = p.MeetingLoudness(m)
		found = true
		break
	}
	if !found {
		return ConsolationFinding{}, false
	}
	lunch := proximity.Meeting{
		Room: habitat.Kitchen, From: lunchFrom, To: lunchTo,
		Participants: present,
	}
	finding.LunchLoud = p.MeetingLoudness(lunch)
	finding.QuieterThanLunch = finding.MeetingLoud < finding.LunchLoud
	return finding, true
}
