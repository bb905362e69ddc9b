package mission

import (
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
)

// Dataset-wide invariants of the generator: whatever the seed, these must
// hold or every downstream analysis is built on sand.

func TestDatasetInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	sc := DefaultScenario(1357)
	sc.Days = 5
	res, err := Run(Config{Seed: 1357, Scenario: sc, CollectTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	horizon := simtime.StartOfDay(sc.Days + 1)

	for _, id := range res.Dataset.Badges() {
		recs := res.Dataset.Series(id).All()
		var lastWear *bool
		for i, r := range recs {
			// Timestamps within the mission window, allowing a few seconds
			// of clock offset at the edges.
			if r.Local < -10*time.Second || r.Local > horizon+time.Minute {
				t.Fatalf("badge %d record %d at %v outside mission", id, i, r.Local)
			}
			switch r.Kind {
			case record.KindWear:
				// Wear transitions must alternate.
				w := r.Worn()
				if lastWear != nil && *lastWear == w {
					t.Fatalf("badge %d: consecutive wear=%v records", id, w)
				}
				lastWear = &w
			case record.KindMic:
				speech, _, f0, frac := r.Mic()
				if frac < 0 || frac > 1 {
					t.Fatalf("badge %d: speech fraction %v", id, frac)
				}
				if speech && f0 <= 0 {
					t.Fatalf("badge %d: speech without fundamental", id)
				}
			case record.KindBattery:
				if pct := r.BatteryPct(); pct < 0 || pct > 100 {
					t.Fatalf("badge %d: battery %v%%", id, pct)
				}
			case record.KindBeacon:
				if r.PeerID < 1 || r.PeerID > 27 {
					t.Fatalf("badge %d: beacon id %d", id, r.PeerID)
				}
			}
		}
	}

	// C's badge is never worn after the death until the reuse day.
	cSeries := res.Dataset.Series(store.BadgeID(BadgeC))
	for _, r := range cSeries.Range(DeathTime()+time.Minute, horizon) {
		if r.Kind == record.KindWear && r.Worn() {
			t.Fatalf("C's badge worn at %v, after the death and before reuse", r.Local)
		}
	}

	// Truth: C absent after death; nobody is in two places (trivially true
	// per-sample) and every present sample lies inside the habitat bounds.
	for name, samples := range res.Truth {
		for _, ts := range samples {
			if name == AstronautC && ts.At > DeathTime() && ts.Present {
				t.Fatalf("C present at %v after death", ts.At)
			}
			if ts.Present && !res.Habitat.Bounds().Contains(ts.Pos) {
				t.Fatalf("%s outside habitat at %v: %v", name, ts.At, ts.Pos)
			}
		}
	}

	// Reference badge: its sync-source role means it must never be worn
	// and must carry env records throughout.
	ref := res.Dataset.Series(store.BadgeID(ReferenceBadge))
	for _, r := range ref.Kind(record.KindWear) {
		if r.Worn() {
			t.Fatal("reference badge worn")
		}
	}
	if len(ref.Kind(record.KindEnv)) == 0 {
		t.Fatal("reference badge has no env records")
	}
}
