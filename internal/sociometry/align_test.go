package sociometry

import (
	"reflect"
	"testing"
	"time"

	"icares/internal/activity"
	"icares/internal/habitat"
	"icares/internal/localization"
	"icares/internal/record"
	"icares/internal/store"
)

// TestUnalignedLocWindowSpansMidnight pins the satellite-3 fix: a LocWindow
// that does not divide the day (7 s here — 86400 % 7 != 0) must fall back
// to the whole-stream derivation, because a per-day fold splits the window
// straddling midnight and diverges. The fixture puts beacon records on both
// sides of the day-2/day-3 boundary inside one 7 s window and checks that
// Track equals the continuous derivation, not the naive per-day
// concatenation.
func TestUnalignedLocWindowSpansMidnight(t *testing.T) {
	h := habitat.Standard()
	sites := h.Beacons()
	if len(sites) < 2 {
		t.Fatal("standard habitat has fewer than 2 beacons")
	}
	midnight := 48 * time.Hour // day-2/day-3 boundary

	d := store.NewDataset()
	s := d.Series(1)
	s.Append(record.Record{Local: 24 * time.Hour, Kind: record.KindWear, Worn: true})
	var beacons []record.Record
	for off := -5 * time.Second; off < 2*time.Second; off += time.Second {
		at := midnight + off
		site := sites[0]
		if off >= 0 {
			site = sites[1]
		}
		r := record.Record{Local: at, Kind: record.KindBeacon, PeerID: uint16(site.ID), RSSI: -50}
		s.Append(r)
		beacons = append(beacons, r)
	}

	p, err := NewPipeline(Source{
		Habitat:  h,
		Data:     d,
		Names:    []string{"X"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 2,
		LastDay:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetLocWindow(7 * time.Second)

	if p.locAligned() {
		t.Fatal("7s window reported as day-aligned")
	}

	loc, err := localization.NewLocator(h)
	if err != nil {
		t.Fatal(err)
	}
	whole := loc.Track(beacons, 7*time.Second)
	got := p.Track("X")
	if !reflect.DeepEqual(got, whole) {
		t.Fatalf("Track diverges from whole-stream derivation:\n got %+v\nwant %+v", got, whole)
	}

	// The naive per-day fold splits the midnight-spanning window into two
	// fixes; if it ever agrees, this fixture has stopped exercising the
	// boundary and the test must be rebuilt.
	var naive []localization.Fix
	for day := 2; day <= 3; day++ {
		from, to := dayRange(day)
		var dayRecs []record.Record
		for _, r := range beacons {
			if r.Local >= from && r.Local < to {
				dayRecs = append(dayRecs, r)
			}
		}
		naive = append(naive, loc.Track(dayRecs, 7*time.Second)...)
	}
	if reflect.DeepEqual(naive, whole) {
		t.Fatal("per-day fold equals whole-stream derivation; fixture no longer spans midnight")
	}
}

// TestActivityWindowDividesDay pins the assumption the activity fold rests
// on: the pipeline classifies per-day windows with activity.DefaultConfig,
// which composes into the whole-mission classification only if its window
// divides the day (no window may straddle midnight).
func TestActivityWindowDividesDay(t *testing.T) {
	w := activity.DefaultConfig().Window
	if w <= 0 || (24*time.Hour)%w != 0 {
		t.Fatalf("activity.DefaultConfig().Window = %v does not divide 24h; per-day activity folds are now wrong", w)
	}
}
