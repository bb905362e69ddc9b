// Package localization turns beacon observations into positions and room
// occupancy. It implements the paper's positioning pipeline: RSSI-based
// triangulation against the 27 fixed beacons, perfect room detection thanks
// to metal-wall shielding, dominant-position frames, and the >= 10 s dwell
// filter that suppresses beacon bleed-through at open doors (paper,
// footnote 1).
package localization

import (
	"errors"
	"math"
	"slices"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/record"
)

// Fix is one position estimate.
type Fix struct {
	At      time.Duration
	Pos     geometry.Point
	Room    habitat.RoomID
	Beacons int // number of distinct beacons sighted, other rooms' included
}

// Errors of the locator.
var (
	ErrNoObservations = errors.New("localization: no observations")
	ErrUnknownBeacon  = errors.New("localization: unknown beacon id")
)

// Locator resolves positions within a habitat. It is read-only after
// NewLocator, so one Locator serves any number of goroutines; the scratch a
// scan window needs belongs to the call.
type Locator struct {
	hab     *habitat.Habitat
	ids     []int  // beacon IDs, ascending
	sites   []site // sites[i] is the beacon with ID ids[i]
	profile radio.Profile
	txPower float64

	// fallback is the room a window gets when no average RSSI beats
	// -1e18 (all NaN or -Inf): that of beacon 0, or room 0 without one.
	fallback site
}

// site is one beacon with its room's clamp rectangle.
type site struct {
	pos   geometry.Point
	room  habitat.RoomID
	clamp geometry.Rect // room bounds inset by 0.1 m
	known bool          // room is in the habitat; otherwise no clamp
}

// NewLocator builds a locator using the habitat's beacon map and the BLE
// propagation profile for RSSI-to-distance inversion.
func NewLocator(hab *habitat.Habitat) (*Locator, error) {
	if hab == nil {
		return nil, radio.ErrNoHabitat
	}
	byID := make(map[int]habitat.BeaconSite)
	for _, s := range hab.Beacons() {
		byID[s.ID] = s
	}
	l := &Locator{
		hab:     hab,
		ids:     make([]int, 0, len(byID)),
		profile: radio.ProfileFor(radio.BLE24),
		txPower: 0,
	}
	for id := range byID {
		l.ids = append(l.ids, id)
	}
	slices.Sort(l.ids)
	siteIn := func(s habitat.BeaconSite) site {
		r, err := hab.Room(s.Room)
		return site{pos: s.Pos, room: s.Room, clamp: r.Bounds.Inset(0.1), known: err == nil}
	}
	l.sites = make([]site, len(l.ids))
	for i, id := range l.ids {
		l.sites[i] = siteIn(byID[id])
	}
	l.fallback = siteIn(byID[0]) // the zero site (room 0) when beacon 0 is absent
	return l, nil
}

// Obs is one (beacon, RSSI) pair of a scan window. Multiple observations of
// the same beacon are averaged by Locate.
type Obs struct {
	BeaconID int
	RSSI     float64
}

// slot is one distinct beacon of a scan window. It first accumulates the
// beacon's sightings; once the room is known, the room's slots are rewritten
// in place as Gauss-Newton anchors.
type slot struct {
	site int     // index into Locator.sites
	n    int     // sightings
	sum  float64 // RSSI sum, in sighting order

	pos  geometry.Point // anchor position
	dist float64        // range from the mean RSSI
	w    float64        // Gauss-Newton weight 1/(dist²+0.25)
}

// Locate estimates a position from one scan window.
//
// Room detection picks the room of the strongest beacon — exact in the
// shielded habitat. The in-room position is then a distance-weighted
// centroid of that room's beacons refined by Gauss-Newton iterations on the
// log-distance model, clamped to the detected room.
//
// Beacons are visited in ascending ID order, which fixes the strongest-beacon
// tie-break, the anchor order and so the floating-point summation order.
// Gauss-Newton runs at most 12 iterations and stops at a fixed point: an
// iteration is a pure function of the position and the anchors, so once one
// leaves both coordinates unchanged, every later one would too and the fix
// is the one all 12 give. "Unchanged" compares math.Float64bits, not ==:
// == calls -0 equal to +0 and NaN unequal to itself, so only the bit test
// makes "unchanged" mean "the next iteration sees the same input".
func (l *Locator) Locate(obs []Obs) (Fix, error) {
	// One slot per distinct beacon: never more than the sightings or the sites.
	return l.locate(obs, make([]slot, 0, min(len(obs), len(l.sites))))
}

// locate is Locate with caller-owned scratch: acc must be empty, and with
// room for one slot per distinct beacon of obs it never reallocates.
func (l *Locator) locate(obs []Obs, acc []slot) (Fix, error) {
	if len(obs) == 0 {
		return Fix{}, ErrNoObservations
	}
	// Average duplicate sightings per beacon; acc stays sorted by site,
	// that is by beacon ID.
	for _, o := range obs {
		i, ok := slices.BinarySearch(l.ids, o.BeaconID)
		if !ok {
			return Fix{}, ErrUnknownBeacon
		}
		j := 0
		for j < len(acc) && acc[j].site < i {
			j++
		}
		if j == len(acc) || acc[j].site != i {
			acc = append(acc, slot{})
			copy(acc[j+1:], acc[j:])
			acc[j] = slot{site: i}
		}
		acc[j].sum += o.RSSI
		acc[j].n++
	}
	beacons := len(acc)

	// Strongest beacon determines the room.
	det, bestRSSI := &l.fallback, -1e18
	for _, a := range acc {
		if avg := a.sum / float64(a.n); avg > bestRSSI {
			det, bestRSSI = &l.sites[a.site], avg
		}
	}
	room := det.room

	// Use only the detected room's beacons for the position (bleed-through
	// sightings from adjacent rooms would otherwise drag the estimate).
	anchors := acc[:0]
	for _, a := range acc {
		s := &l.sites[a.site]
		if s.room != room {
			continue
		}
		dist := radio.DistanceFromRSSI(l.profile, a.sum/float64(a.n), l.txPower)
		anchors = append(anchors, slot{pos: s.pos, dist: dist, w: 1 / (dist*dist + 0.25)})
	}

	var pos geometry.Point
	switch len(anchors) {
	case 0: // all sightings were bleed-through; fall back to room center
		c, err := l.hab.Center(room)
		if err != nil {
			return Fix{}, err
		}
		pos = c
	case 1:
		pos = anchors[0].pos
	default:
		// Distance-weighted centroid seed: nearest beacons dominate.
		var wsum float64
		for i := range anchors {
			a := &anchors[i]
			w := 1 / (a.dist*a.dist*a.dist + 0.1)
			pos = pos.Add(a.pos.Scale(w))
			wsum += w
		}
		pos = pos.Scale(1 / wsum)
		// Damped Gauss-Newton refinement on range residuals, weighted like
		// the seed so distant (noisier) anchors cannot drag the estimate.
		for iter := 0; iter < 12; iter++ {
			var gx, gy, hxx, hyy float64
			for i := range anchors {
				a := &anchors[i]
				d := pos.Dist(a.pos)
				if d < 1e-6 {
					continue
				}
				r := d - a.dist
				ux := (pos.X - a.pos.X) / d
				uy := (pos.Y - a.pos.Y) / d
				gx += a.w * r * ux
				gy += a.w * r * uy
				hxx += a.w * ux * ux
				hyy += a.w * uy * uy
			}
			next := geometry.Point{X: pos.X - gnStep(gx, hxx), Y: pos.Y - gnStep(gy, hyy)}
			if math.Float64bits(next.X) == math.Float64bits(pos.X) &&
				math.Float64bits(next.Y) == math.Float64bits(pos.Y) {
				break // fixed point: every later iteration repeats this one
			}
			pos = next
		}
	}
	// Clamp into the detected room.
	if det.known {
		pos = det.clamp.Clamp(pos)
	}
	return Fix{Pos: pos, Room: room, Beacons: beacons}, nil
}

// gnStep is one damped (factor 0.5) Gauss-Newton step along an axis,
// limited to 1 m.
func gnStep(g, h float64) float64 {
	if h <= 0 {
		return 0
	}
	s := 0.5 * g / h
	if s > 1 {
		s = 1
	}
	if s < -1 {
		s = -1
	}
	return s
}

// Track groups a badge's beacon records into windows and locates each.
// Records must be time-ordered (store.Series provides this). Windows with
// no observations yield no fix.
func (l *Locator) Track(recs []record.Record, window time.Duration) []Fix {
	c := record.NewCursor(recs)
	return l.TrackCursor(&c, window)
}

// TrackCursor is Track over a record cursor: one streaming pass holding only
// the current window's observations, so out-of-core sources never
// materialize the beacon stream. The window buffer and the slots are
// allocated once per call and reused for every window.
func (l *Locator) TrackCursor(c *record.Cursor, window time.Duration) []Fix {
	if window <= 0 {
		window = 15 * time.Second
	}
	var fixes []Fix
	var cur []Obs
	acc := make([]slot, 0, len(l.sites))
	var curStart time.Duration
	flush := func() {
		if len(cur) == 0 {
			return
		}
		if fix, err := l.locate(cur, acc); err == nil {
			fix.At = curStart
			fixes = append(fixes, fix)
		}
		cur = cur[:0]
	}
	started := false
	for b := c.NextBatch(); b != nil; b = c.NextBatch() {
		for i := range b {
			r := &b[i]
			if r.Kind != record.KindBeacon {
				continue
			}
			w := r.Local - (r.Local % window)
			if !started || w != curStart {
				flush()
				curStart = w
				started = true
			}
			cur = append(cur, Obs{BeaconID: int(r.PeerID), RSSI: float64(r.RSSI)})
		}
	}
	flush()
	return fixes
}

// Interval is a maximal stay of one track in one room.
type Interval struct {
	Room     habitat.RoomID
	From, To time.Duration
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.To - iv.From }

// DefaultMinDwell is the paper's dwell filter: a room change only counts if
// at least 10 s are spent in the new room.
const DefaultMinDwell = 10 * time.Second

// DefaultMaxGap is the largest fix gap bridged inside one interval; badge
// scans every 15 s, so a minute tolerates a few missed scans.
const DefaultMaxGap = time.Minute

// RoomIntervals merges a fix sequence into room-stay intervals. Stays
// shorter than minDwell are treated as bleed-through noise: they are
// deleted and their neighbours merged when they agree (the paper's filter
// for "occasional beacon signals from another room slipped through open
// doors"). Fix gaps longer than maxGap end the current interval. Pass
// minDwell = 0 to disable the filter (ablation).
func RoomIntervals(fixes []Fix, minDwell, maxGap time.Duration) []Interval {
	if maxGap <= 0 {
		maxGap = DefaultMaxGap
	}
	raw := make([]Interval, 0, 32)
	for _, f := range fixes {
		n := len(raw)
		if n > 0 && raw[n-1].Room == f.Room && f.At-raw[n-1].To <= maxGap {
			raw[n-1].To = f.At
			continue
		}
		raw = append(raw, Interval{Room: f.Room, From: f.At, To: f.At})
	}
	if minDwell <= 0 {
		return raw
	}
	// Remove sub-dwell blips, merging equal neighbours.
	out := make([]Interval, 0, len(raw))
	for _, iv := range raw {
		if iv.Duration() < minDwell {
			// Blip: extend the previous interval over it if possible.
			if n := len(out); n > 0 {
				out[n-1].To = iv.To
			}
			continue
		}
		if n := len(out); n > 0 && out[n-1].Room == iv.Room && iv.From-out[n-1].To <= maxGap {
			out[n-1].To = iv.To
			continue
		}
		out = append(out, iv)
	}
	return out
}

// ExcludeRooms drops intervals spent in the listed rooms. Fig. 2 of the
// paper excludes the central room "adjacent to all other rooms", so a
// kitchen→atrium→office walk counts as one kitchen→office passage.
func ExcludeRooms(ivs []Interval, rooms ...habitat.RoomID) []Interval {
	skip := make(map[habitat.RoomID]bool, len(rooms))
	for _, r := range rooms {
		skip[r] = true
	}
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if skip[iv.Room] {
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Transitions counts room-to-room passages from an interval sequence: one
// passage per consecutive pair of distinct rooms.
func Transitions(ivs []Interval) map[[2]habitat.RoomID]int {
	out := make(map[[2]habitat.RoomID]int)
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Room == ivs[i-1].Room {
			continue
		}
		out[[2]habitat.RoomID{ivs[i-1].Room, ivs[i].Room}]++
	}
	return out
}
