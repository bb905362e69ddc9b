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

// TestLocWindowMustDivideDay pins the construction check the per-day track
// fold rests on: windows are aligned to absolute time, so day-wise folds
// equal the whole-stream derivation only if the window divides the day.
func TestLocWindowMustDivideDay(t *testing.T) {
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     store.NewDataset(),
		Names:    []string{"X"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 2,
		LastDay:  3,
	}
	for _, c := range []struct {
		w  time.Duration
		ok bool
	}{
		{7 * time.Second, false}, // 86400 % 7 != 0
		{0, false},
		{-time.Second, false},
		{48 * time.Hour, false},
		{60 * time.Second, true},
	} {
		p, err := NewPipeline(src, WithLocWindow(c.w))
		if c.ok && (err != nil || p.locWindow != c.w) {
			t.Errorf("WithLocWindow(%v): err %v, want the window accepted", c.w, err)
		}
		if !c.ok && err == nil {
			t.Errorf("WithLocWindow(%v) accepted, want an error", c.w)
		}
	}
}

// TestTrackSpansMidnight puts beacon records on both sides of the
// day-2/day-3 boundary and checks that the per-day track fold at the default
// window equals the localization track over the continuous beacon stream.
func TestTrackSpansMidnight(t *testing.T) {
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

	loc, err := localization.NewLocator(h)
	if err != nil {
		t.Fatal(err)
	}
	whole := loc.Track(beacons, p.locWindow)
	if len(whole) < 2 {
		t.Fatalf("whole-stream track has %d fixes; fixture no longer spans midnight", len(whole))
	}
	if got := p.Track("X"); !reflect.DeepEqual(got, whole) {
		t.Fatalf("Track diverges from whole-stream derivation:\n got %+v\nwant %+v", got, whole)
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
