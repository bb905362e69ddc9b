package sociometry

import (
	"sort"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/speech"
)

// Environment and voice-demographics analyses: the paper credits the
// badges with identifying "the impact of environmental conditions ... on
// employee performance" in earlier deployments, notes that the kitchen was
// "the cosiest room with the highest temperatures", and that the
// microphone distinguished "between male and female speakers".

// RoomClimate is the sensed environment of one room.
type RoomClimate struct {
	Room      habitat.RoomID
	Samples   int
	MeanTempC float64
	MeanLux   float64
}

// RoomClimates joins env records with localization: each env sample is
// attributed to the room the badge was in at that moment, yielding sensed
// per-room climate. Worn fixes only, like every localization analysis.
func (p *Pipeline) RoomClimates() []RoomClimate {
	// Localize the crew in parallel; the env-sample join below is
	// sequential in crew order for deterministic mean accumulation.
	p.forEachName(func(name string) { p.Track(name) })
	type acc struct {
		n    int
		temp float64
		lux  float64
	}
	byRoom := make(map[habitat.RoomID]*acc)
	for _, name := range p.src.Names {
		track := p.Track(name)
		if len(track) == 0 {
			continue
		}
		ti := 0
		it := p.crewIter(name, record.KindEnv)
		for it.Next() {
			r := it.Record()
			// Advance to the last fix at or before the env sample.
			for ti+1 < len(track) && track[ti+1].At <= r.Local {
				ti++
			}
			if track[ti].At > r.Local || r.Local-track[ti].At > 2*time.Minute {
				continue // no contemporaneous fix
			}
			room := track[ti].Room
			a := byRoom[room]
			if a == nil {
				a = &acc{}
				byRoom[room] = a
			}
			a.n++
			temp, _, lux := r.Env()
			a.temp += float64(temp)
			a.lux += float64(lux)
		}
	}
	rooms := make([]habitat.RoomID, 0, len(byRoom))
	for room := range byRoom {
		rooms = append(rooms, room)
	}
	sort.Slice(rooms, func(i, j int) bool { return rooms[i] < rooms[j] })
	out := make([]RoomClimate, 0, len(rooms))
	for _, room := range rooms {
		a := byRoom[room]
		out = append(out, RoomClimate{
			Room:      room,
			Samples:   a.n,
			MeanTempC: a.temp / float64(a.n),
			MeanLux:   a.lux / float64(a.n),
		})
	}
	return out
}

// WarmestRoom returns the sensed warmest room with a minimum sample count
// (the paper's kitchen finding).
func (p *Pipeline) WarmestRoom(minSamples int) (RoomClimate, bool) {
	var best RoomClimate
	found := false
	for _, c := range p.RoomClimates() {
		if c.Samples < minSamples {
			continue
		}
		if !found || c.MeanTempC > best.MeanTempC {
			best = c
			found = true
		}
	}
	return best, found
}

// GenderShare is the voice-demographic split of detected speech.
type GenderShare struct {
	FemaleFrames, MaleFrames, UnknownFrames int
}

// Total returns the number of attributed frames.
func (g GenderShare) Total() int { return g.FemaleFrames + g.MaleFrames + g.UnknownFrames }

// FemaleFraction returns the female share of gender-classified frames.
func (g GenderShare) FemaleFraction() float64 {
	classified := g.FemaleFrames + g.MaleFrames
	if classified == 0 {
		return 0
	}
	return float64(g.FemaleFrames) / float64(classified)
}

// VoiceGenderShare classifies every detected-speech frame across the crew
// by voice fundamental — the badge capability the paper describes as
// "identifying the speaker during a multi-person conversation and
// distinguishing between male and female speakers". With the ICAres-1 crew
// of 3 women and 3 men, the share should be broadly balanced.
func (p *Pipeline) VoiceGenderShare() GenderShare {
	p.forEachName(func(name string) { p.Frames(name) })
	var out GenderShare
	for _, name := range p.src.Names {
		for _, f := range p.Frames(name) {
			if !f.Speech {
				continue
			}
			switch speech.ClassifyGender(f.F0Hz) {
			case speech.GenderFemale:
				out.FemaleFrames++
			case speech.GenderMale:
				out.MaleFrames++
			default:
				out.UnknownFrames++
			}
		}
	}
	return out
}
