package localization

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/radio"
	"icares/internal/record"
	"icares/internal/stats"
)

// refLocator is the map-and-sort locator the kernel replaced, kept verbatim
// as the reference every fix of the kernel must equal bit for bit.
type refLocator struct {
	hab     *habitat.Habitat
	sites   map[int]habitat.BeaconSite
	profile radio.Profile
	txPower float64
}

// locateScan locates one scan window with fresh scratch.
func locateScan(l *Locator, obs []Obs) (Fix, error) {
	// One slot per distinct beacon: never more than the sightings or the sites.
	return l.locate(obs, make([]slot, 0, min(len(obs), len(l.sites))))
}

// track runs TrackCursor over an in-memory record slice.
func track(l *Locator, recs []record.Record, window time.Duration) []Fix {
	c := record.NewCursor(recs)
	return l.TrackCursor(nil, &c, window, allTime)
}

func newRefLocator(hab *habitat.Habitat) *refLocator {
	sites := make(map[int]habitat.BeaconSite)
	for _, s := range hab.Beacons() {
		sites[s.ID] = s
	}
	return &refLocator{hab: hab, sites: sites, profile: radio.ProfileFor(radio.BLE24)}
}

func (l *refLocator) locateRef(obs []Obs) (Fix, error) {
	if len(obs) == 0 {
		return Fix{}, ErrNoObservations
	}
	// Average duplicate sightings per beacon.
	sum := make(map[int]float64, len(obs))
	cnt := make(map[int]int, len(obs))
	for _, o := range obs {
		if _, ok := l.sites[o.BeaconID]; !ok {
			return Fix{}, ErrUnknownBeacon
		}
		sum[o.BeaconID] += o.RSSI
		cnt[o.BeaconID]++
	}
	ids := make([]int, 0, len(sum))
	for id := range sum {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Strongest beacon determines the room.
	bestID, bestRSSI := 0, -1e18
	for _, id := range ids {
		if avg := sum[id] / float64(cnt[id]); avg > bestRSSI {
			bestID, bestRSSI = id, avg
		}
	}
	room := l.sites[bestID].Room

	// Use only the detected room's beacons for the position (bleed-through
	// sightings from adjacent rooms would otherwise drag the estimate).
	type anchor struct {
		pos  geometry.Point
		dist float64
	}
	anchors := make([]anchor, 0, len(ids))
	for _, id := range ids {
		s := l.sites[id]
		if s.Room != room {
			continue
		}
		avg := sum[id] / float64(cnt[id])
		anchors = append(anchors, anchor{
			pos:  s.Pos,
			dist: radio.DistanceFromRSSI(l.profile, avg, l.txPower),
		})
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
		for _, a := range anchors {
			w := 1 / (a.dist*a.dist*a.dist + 0.1)
			pos = pos.Add(a.pos.Scale(w))
			wsum += w
		}
		pos = pos.Scale(1 / wsum)
		// Damped Gauss-Newton refinement on range residuals, weighted like
		// the seed so distant (noisier) anchors cannot drag the estimate.
		for iter := 0; iter < 12; iter++ {
			var gx, gy, hxx, hyy float64
			for _, a := range anchors {
				d := pos.Dist(a.pos)
				if d < 1e-6 {
					continue
				}
				w := 1 / (a.dist*a.dist + 0.25)
				r := d - a.dist
				ux := (pos.X - a.pos.X) / d
				uy := (pos.Y - a.pos.Y) / d
				gx += w * r * ux
				gy += w * r * uy
				hxx += w * ux * ux
				hyy += w * uy * uy
			}
			step := func(g, h float64) float64 {
				if h <= 0 {
					return 0
				}
				s := 0.5 * g / h // damping 0.5
				if s > 1 {
					s = 1
				}
				if s < -1 {
					s = -1
				}
				return s
			}
			pos.X -= step(gx, hxx)
			pos.Y -= step(gy, hyy)
		}
	}
	// Clamp into the detected room.
	if r, err := l.hab.Room(room); err == nil {
		pos = r.Bounds.Inset(0.1).Clamp(pos)
	}
	return Fix{Pos: pos, Room: room, Beacons: len(ids)}, nil
}

// trackRef groups time-ordered beacon records into scan windows exactly as
// TrackCursor does and locates each window with locateRef.
func (l *refLocator) trackRef(recs []record.Record, window time.Duration) []Fix {
	var fixes []Fix
	var cur []Obs
	var curStart time.Duration
	flush := func() {
		if len(cur) == 0 {
			return
		}
		if fix, err := l.locateRef(cur); err == nil {
			fix.At = curStart
			fixes = append(fixes, fix)
		}
		cur = nil
	}
	for _, r := range recs {
		if r.Kind != record.KindBeacon {
			continue
		}
		if w := r.Local - r.Local%window; len(cur) == 0 || w != curStart {
			flush()
			curStart = w
		}
		cur = append(cur, Obs{BeaconID: int(r.PeerID), RSSI: float64(r.RSSI())})
	}
	flush()
	return fixes
}

// sameFix reports whether two fixes are equal bit for bit (NaN and the sign
// of zero included), which == on the coordinates would not check.
func sameFix(a, b Fix) bool {
	return a.At == b.At && a.Room == b.Room && a.Beacons == b.Beacons &&
		math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y)
}

// sparsePlans are Builder floor plans with sparse beacon IDs that exercise
// every fallback of the strongest-beacon rule: no beacon 0 and no room 0
// (the fallback fails with the habitat's unknown-room error), a beacon 0
// (its room is the fallback), and a room 0 without a beacon 0 (room 0 is the
// fallback and anchors on its own beacons).
func sparsePlans(t *testing.T) map[string]*habitat.Habitat {
	t.Helper()
	p := func(x, y float64) geometry.Point { return geometry.Point{X: x, Y: y} }
	plans := map[string]*habitat.Builder{
		"sparse": habitat.NewBuilder().
			AddRoom(habitat.Kitchen, p(0, 0), p(6, 4)).
			AddRoom(habitat.Office, p(6, 0), p(12, 4)).
			AddRoom(habitat.Biolab, p(0, 4), p(6, 9)).
			AddDoor(habitat.Kitchen, habitat.Office).
			AddDoor(habitat.Kitchen, habitat.Biolab).
			PlaceBeacon(3, habitat.Kitchen, p(1, 1)).
			PlaceBeacon(700, habitat.Kitchen, p(5, 3)).
			PlaceBeacon(70000, habitat.Office, p(7, 1)).
			PlaceBeacon(12, habitat.Office, p(11, 3)).
			PlaceBeacon(41, habitat.Biolab, p(3, 6)),
		"beacon-zero": habitat.NewBuilder().
			AddRoom(habitat.Kitchen, p(0, 0), p(6, 4)).
			AddRoom(habitat.Office, p(6, 0), p(12, 4)).
			AddRoom(habitat.Biolab, p(0, 4), p(6, 9)).
			AddDoor(habitat.Kitchen, habitat.Office).
			PlaceBeacon(0, habitat.Biolab, p(2, 8)).
			PlaceBeacon(5, habitat.Biolab, p(5, 5)).
			PlaceBeacon(3, habitat.Kitchen, p(1, 1)).
			PlaceBeacon(700, habitat.Kitchen, p(5, 3)).
			PlaceBeacon(70000, habitat.Office, p(9, 2)),
		"room-zero": habitat.NewBuilder().
			AddRoom(habitat.NoRoom, p(0, 0), p(8, 5)).
			AddRoom(habitat.Office, p(8, 0), p(14, 5)).
			AddDoor(habitat.NoRoom, habitat.Office).
			PlaceBeacon(3, habitat.NoRoom, p(1, 1)).
			PlaceBeacon(700, habitat.NoRoom, p(7, 4)).
			PlaceBeacon(70000, habitat.Office, p(9, 1)).
			PlaceBeacon(8, habitat.Office, p(13, 4)),
	}
	out := map[string]*habitat.Habitat{"standard": habitat.Standard()}
	for name, b := range plans {
		h, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = h
	}
	return out
}

// randomScan draws one scan window over sites: mostly one room's beacons,
// with bleed-through from other rooms, duplicate sightings, unknown IDs,
// single-beacon windows and non-finite RSSI.
func randomScan(rng *stats.RNG, sites []habitat.BeaconSite) []Obs {
	room := sites[rng.Intn(len(sites))].Room
	var local []habitat.BeaconSite
	for _, s := range sites {
		if s.Room == room {
			local = append(local, s)
		}
	}
	n := 1 + rng.Intn(10)
	if rng.Bool(0.2) {
		n = 1
	}
	allBad := rng.Bool(0.05) // every RSSI NaN or -Inf: the fallback room
	unknown := []int{999, -1, 1 << 40}
	obs := make([]Obs, 0, n)
	for i := 0; i < n; i++ {
		var id int
		switch u := rng.Float64(); {
		case u < 0.02:
			id = unknown[rng.Intn(len(unknown))]
		case u < 0.2:
			id = sites[rng.Intn(len(sites))].ID // bleed-through
		case u < 0.4 && len(obs) > 0:
			id = obs[rng.Intn(len(obs))].BeaconID // duplicate sighting
		default:
			id = local[rng.Intn(len(local))].ID
		}
		rssi := rng.Range(-95, -35)
		switch u := rng.Float64(); {
		case allBad && u < 0.5:
			rssi = math.NaN()
		case allBad:
			rssi = math.Inf(-1)
		case u < 0.02:
			rssi = math.NaN()
		case u < 0.04:
			rssi = math.Inf(1)
		case u < 0.06:
			rssi = math.Inf(-1)
		case u < 0.07:
			rssi = -1e18
		case u < 0.08:
			rssi = math.Copysign(0, -1)
		}
		obs = append(obs, Obs{BeaconID: id, RSSI: rssi})
	}
	return obs
}

func TestLocateMatchesReference(t *testing.T) {
	for name, hab := range sparsePlans(t) {
		l, err := NewLocator(hab)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLocator(hab)
		sites := hab.Beacons()
		rng := stats.NewRNG(11)
		kinds := map[string]int{}
		for i := 0; i < 20000; i++ {
			obs := randomScan(rng, sites)
			if i == 0 {
				obs = nil
			}
			want, wantErr := ref.locateRef(obs)
			got, gotErr := locateScan(l, obs)
			switch {
			case wantErr != nil:
				kinds[wantErr.Error()]++
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("%s: scan %d %v: err %v, want %v", name, i, obs, gotErr, wantErr)
				}
			case gotErr != nil:
				t.Fatalf("%s: scan %d %v: err %v, want %+v", name, i, obs, gotErr, want)
			case !sameFix(got, want):
				t.Fatalf("%s: scan %d %v:\n got %+v\nwant %+v", name, i, obs, got, want)
			default:
				kinds["ok"]++
			}
		}
		if kinds["ok"] == 0 || kinds[ErrUnknownBeacon.Error()] == 0 || kinds[ErrNoObservations.Error()] == 0 {
			t.Errorf("%s: outcomes %v miss a case", name, kinds)
		}
		if name == "standard" && kinds[habitat.ErrUnknownRoom.Error()] == 0 {
			t.Errorf("%s: no scan reached the unknown-room fallback: %v", name, kinds)
		}
	}
}

// TestTrackMatchesReferenceMission replays every 15 s scan window of a
// three-day mission (the same run as Simulate(Options{Seed: 7, Days: 3})):
// TrackCursor must give the fixes of a per-window locateRef loop.
func TestTrackMatchesReferenceMission(t *testing.T) {
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	sc := mission.DefaultScenario(7)
	sc.Days = 3
	res, err := mission.Run(mission.Config{Seed: 7, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLocator(res.Habitat)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefLocator(res.Habitat)
	total := 0
	for _, id := range res.Dataset.Badges() {
		recs := res.Dataset.Series(id).Kind(record.KindBeacon)
		c := record.NewCursor(recs)
		got := l.TrackCursor(nil, &c, 15*time.Second, allTime)
		want := ref.trackRef(recs, 15*time.Second)
		if len(got) != len(want) {
			t.Fatalf("badge %d: %d fixes, want %d", id, len(got), len(want))
		}
		for i := range want {
			if !sameFix(got[i], want[i]) {
				t.Fatalf("badge %d fix %d:\n got %+v\nwant %+v", id, i, got[i], want[i])
			}
		}
		total += len(want)
	}
	if total < 10000 {
		t.Errorf("only %d windows located", total)
	}
}

// TestLocatorConcurrentUse shares one Locator across goroutines, as the
// analysis pipeline does: every result must equal the sequential one.
func TestLocatorConcurrentUse(t *testing.T) {
	l, hab := newLocator(t)
	sites := hab.Beacons()
	const workers = 8
	type job struct {
		recs  []record.Record
		scans [][]Obs
		track []Fix
		fixes []Fix
	}
	jobs := make([]job, workers)
	rng := stats.NewRNG(12)
	for g := range jobs {
		for i := 0; i < 3000; i++ {
			s := sites[rng.Intn(len(sites))]
			jobs[g].recs = append(jobs[g].recs, record.NewBeacon(time.Duration(i/2)*15*time.Second, uint16(s.ID), float32(rng.Range(-90, -40))))
		}
		for i := 0; i < 500; i++ {
			obs := randomScan(rng, sites)
			jobs[g].scans = append(jobs[g].scans, obs)
			fix, _ := locateScan(l, obs)
			jobs[g].fixes = append(jobs[g].fixes, fix)
		}
		jobs[g].track = track(l, jobs[g].recs, 15*time.Second)
	}
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for g := range jobs {
		wg.Add(1)
		go func(j job, g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				c := record.NewCursor(j.recs)
				track := l.TrackCursor(nil, &c, 15*time.Second, allTime)
				if len(track) != len(j.track) {
					errs[g] = "track length differs"
					return
				}
				for i := range track {
					if !sameFix(track[i], j.track[i]) {
						errs[g] = "track fix differs"
						return
					}
				}
				for i, obs := range j.scans {
					if fix, _ := locateScan(l, obs); !sameFix(fix, j.fixes[i]) {
						errs[g] = "Locate fix differs"
						return
					}
				}
			}
		}(jobs[g], g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestTrackAllocs pins the kernel's scratch reuse: one TrackCursor call over
// a full day of 15 s windows allocates a bounded handful of buffers, not
// several per window.
func TestTrackAllocs(t *testing.T) {
	l, hab := newLocator(t)
	rng := stats.NewRNG(13)
	sites := hab.Beacons()
	const windows = 5760 // 24 h / 15 s
	recs := make([]record.Record, 0, 3*windows)
	for w := 0; w < windows; w++ {
		for k := 0; k < 3; k++ {
			recs = append(recs, record.NewBeacon(time.Duration(w)*15*time.Second+time.Duration(k)*time.Second, uint16(sites[rng.Intn(len(sites))].ID), float32(rng.Range(-90, -40))))
		}
	}
	var fixes []Fix
	allocs := testing.AllocsPerRun(3, func() {
		c := record.NewCursor(recs)
		fixes = l.TrackCursor(nil, &c, 15*time.Second, allTime)
	})
	if len(fixes) != windows {
		t.Fatalf("%d fixes, want %d", len(fixes), windows)
	}
	if allocs >= 100 {
		t.Errorf("TrackCursor over %d windows: %.0f allocs, want < 100", windows, allocs)
	}

	scan := []Obs{{BeaconID: sites[0].ID, RSSI: -60}, {BeaconID: sites[1].ID, RSSI: -70}, {BeaconID: sites[0].ID, RSSI: -62}}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = locateScan(l, scan) }); allocs > 2 {
		t.Errorf("Locate: %.0f allocs, want <= 2", allocs)
	}
}

// allTime is the worn set that keeps every window.
var allTime = record.RangeSet{{From: math.MinInt64, To: math.MaxInt64}}

// randomWorn draws a worn set over [0, span): nil, empty, or up to five
// ranges, some inverted or zero-length, with ends off the window grid.
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

// TestQuickTrackWornMatchesFilter: TrackCursor under a worn set appends to
// dst the fixes of the all-time track whose window start the set contains,
// keeping dst's prefix.
func TestQuickTrackWornMatchesFilter(t *testing.T) {
	l, hab := newLocator(t)
	sites := hab.Beacons()
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const span = 30 * time.Minute
		var recs []record.Record
		for at := time.Duration(0); at < span; at += time.Duration(1+rng.Intn(9000)) * time.Millisecond {
			recs = append(recs, record.NewBeacon(at, uint16(sites[rng.Intn(len(sites))].ID), float32(rng.Range(-90, -40))))
		}
		worn := randomWorn(rng, span)
		c := record.NewCursor(recs)
		dst := make([]Fix, rng.Intn(3), 4)
		for i := range dst {
			dst[i].At = -time.Duration(i + 1)
		}
		want := dst[:len(dst):len(dst)]
		got := l.TrackCursor(dst, &c, 15*time.Second, worn)
		for _, fix := range track(l, recs, 15*time.Second) {
			if worn.Contains(fix.At) {
				want = append(want, fix)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !sameFix(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
