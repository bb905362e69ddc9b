package speech

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
)

func micRec(at time.Duration, loud, f0, frac float64) record.Record {
	return record.NewMic(at, frac > 0, float32(loud), float32(f0), float32(frac))
}

// detect runs FramesCursor over an in-memory record slice.
func detect(recs []record.Record, cfg Config) []Frame {
	c := record.NewCursor(recs)
	return FramesCursor(nil, &c, cfg, allTime)
}

func TestFramesApplyPaperRule(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		name string
		rec  record.Record
		want bool
	}{
		{"loud and long", micRec(0, 65, 140, 0.5), true},
		{"exactly at thresholds", micRec(0, 60, 140, 0.2), true},
		{"too quiet", micRec(0, 55, 140, 0.5), false},
		{"too brief", micRec(0, 70, 140, 0.1), false},
		{"silence", micRec(0, 35, 0, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := detect([]record.Record{tt.rec}, cfg)
			if len(fs) != 1 {
				t.Fatalf("frames = %d", len(fs))
			}
			if fs[0].Speech != tt.want {
				t.Errorf("speech = %v, want %v", fs[0].Speech, tt.want)
			}
		})
	}
}

func TestFramesIgnoreOtherKinds(t *testing.T) {
	recs := []record.Record{
		{Local: 0, Kind: record.KindAccel},
		micRec(15*time.Second, 70, 140, 0.6),
	}
	if got := len(detect(recs, DefaultConfig())); got != 1 {
		t.Errorf("frames = %d", got)
	}
}

func TestFractionAndFilterWorn(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 10; i++ {
		loud, frac := 35.0, 0.0
		if i < 4 {
			loud, frac = 70, 0.6
		}
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, loud, 140, frac))
	}
	frames := detect(recs, DefaultConfig())
	if f := Fraction(frames); f != 0.4 {
		t.Errorf("fraction = %v", f)
	}
	worn := record.RangeSet{{From: 0, To: 60 * time.Second}}
	kept := filterWorn(frames, worn)
	if len(kept) != 4 {
		t.Errorf("worn frames = %d", len(kept))
	}
	if Fraction(nil) != 0 {
		t.Error("empty fraction nonzero")
	}
}

func TestFractionByDay(t *testing.T) {
	var recs []record.Record
	day2 := simtime.StartOfDay(2)
	day3 := simtime.StartOfDay(3)
	for i := 0; i < 4; i++ {
		recs = append(recs, micRec(day2+time.Duration(i*15)*time.Second, 70, 140, 0.5))
		recs = append(recs, micRec(day3+time.Duration(i*15)*time.Second, 35, 0, 0))
	}
	got := FractionByDay(detect(recs, DefaultConfig()))
	if got[2] != 1 || got[3] != 0 {
		t.Errorf("by day = %v", got)
	}
}

func TestClassifyGender(t *testing.T) {
	tests := []struct {
		f0   float64
		want Gender
	}{
		{120, GenderMale},
		{210, GenderFemale},
		{GenderBoundaryHz, GenderFemale},
		{0, GenderUnknown},
		{-5, GenderUnknown},
	}
	for _, tt := range tests {
		if got := ClassifyGender(tt.f0); got != tt.want {
			t.Errorf("ClassifyGender(%v) = %v, want %v", tt.f0, got, tt.want)
		}
	}
	if GenderMale.String() != "male" || GenderFemale.String() != "female" || GenderUnknown.String() != "unknown" {
		t.Error("gender names wrong")
	}
}

func TestAttributeSpeaker(t *testing.T) {
	profiles := map[string]float64{"A": 208, "B": 122, "C": 136}
	if who, ok := AttributeSpeaker(125, profiles, 20); !ok || who != "B" {
		t.Errorf("125 Hz -> %q, %v", who, ok)
	}
	if who, ok := AttributeSpeaker(205, profiles, 20); !ok || who != "A" {
		t.Errorf("205 Hz -> %q, %v", who, ok)
	}
	// A synthetic screen-reader voice far from every profile.
	if _, ok := AttributeSpeaker(300, profiles, 20); ok {
		t.Error("attributed an unknown voice")
	}
	if _, ok := AttributeSpeaker(0, profiles, 20); ok {
		t.Error("attributed silence")
	}
	if _, ok := AttributeSpeaker(140, nil, 20); ok {
		t.Error("attributed with no profiles")
	}
}

func TestTalkingFrames(t *testing.T) {
	profiles := map[string]float64{"A": 208, "B": 122}
	var recs []record.Record
	// 3 frames of A's voice, 2 of B's, 5 silent.
	for i := 0; i < 3; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 70, 208, 0.5))
	}
	for i := 3; i < 5; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 70, 122, 0.5))
	}
	for i := 5; i < 10; i++ {
		recs = append(recs, micRec(time.Duration(i*15)*time.Second, 35, 0, 0))
	}
	frames := detect(recs, DefaultConfig())
	talking, total := TalkingFrames(frames, profiles, 25, "A")
	if talking != 3 || total != 10 {
		t.Errorf("talking/total = %d/%d, want 3/10", talking, total)
	}
}

// allTime is the worn set that keeps every frame.
var allTime = record.RangeSet{{From: math.MinInt64, To: math.MaxInt64}}

// filterWorn keeps the frames recorded while worn: the reference filter
// FramesCursor's worn-first framing must match.
func filterWorn(frames []Frame, worn record.RangeSet) []Frame {
	out := make([]Frame, 0, len(frames))
	for _, f := range frames {
		if worn.Contains(f.At) {
			out = append(out, f)
		}
	}
	return out
}

// randomWorn draws a worn set over [0, span): nil, empty, or up to five
// ranges, some inverted or zero-length, with ends off the frame grid.
func randomWorn(rng *stats.RNG, span time.Duration) record.RangeSet {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return record.RangeSet{}
	}
	at := func() time.Duration { return time.Duration(rng.Float64() * float64(span)) }
	s := make(record.RangeSet, 1+rng.Intn(5))
	for i := range s {
		from := at()
		switch rng.Intn(4) {
		case 0:
			s[i] = record.TimeRange{From: from, To: from}
		case 1:
			s[i] = record.TimeRange{From: from, To: at()} // inverted half the time
		default:
			s[i] = record.TimeRange{From: from, To: from + at()/4}
		}
	}
	return s
}

// TestQuickFramesWornMatchesFilterWorn: FramesCursor under a worn set
// appends filterWorn of the all-time frames to dst, keeping dst's prefix.
func TestQuickFramesWornMatchesFilterWorn(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const span = time.Hour
		var recs []record.Record
		for at := time.Duration(0); at < span; at += 15 * time.Second {
			recs = append(recs, micRec(at, rng.Range(30, 80), rng.Range(80, 260), rng.Float64()))
			if rng.Bool(0.2) {
				recs = append(recs, record.NewAccel(at+time.Second, 0, 0, 1000))
			}
		}
		worn := randomWorn(rng, span)
		c := record.NewCursor(recs)
		dst := make([]Frame, rng.Intn(3), 4)
		for i := range dst {
			dst[i].At = -time.Duration(i + 1)
		}
		want := append(dst[:len(dst):len(dst)], filterWorn(detect(recs, DefaultConfig()), worn)...)
		got := FramesCursor(dst, &c, DefaultConfig(), worn)
		return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
