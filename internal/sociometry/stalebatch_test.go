package sociometry

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
	"icares/internal/store"
)

// Property: marking random batches with markStaleBatch leaves exactly the
// stale set (and stale flag) that markStale leaves record by record. The
// batches cluster around midnights, so many of them cross a day boundary
// in raw or in corrected time; they reach days before, inside and after
// the analysis range; and the corrections freeze at a random point, so
// batches arrive both before and after the freeze. Badge 1 carries a
// fitted clock error, badge 2 none.
func TestQuickMarkStaleBatchMatchesMarkStale(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		newPipe := func() *Pipeline {
			src, _ := syntheticSyncSource(1500*time.Millisecond, 25e-6)
			src.LastDay = 4
			p, err := NewPipeline(src)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		one, many := newPipe(), newPipe()
		batches := 1 + rng.Intn(40)
		freezeAt := rng.Intn(batches + 1)
		for b := 0; b < batches; b++ {
			if b == freezeAt {
				one.RectifyClocks()
				many.RectifyClocks()
			}
			id := store.BadgeID(1 + rng.Intn(2))
			at := simtime.StartOfDay(1+rng.Intn(6)) + time.Duration(rng.Intn(240)-120)*time.Second
			recs := make([]record.Record, rng.Intn(30))
			for i := range recs {
				// Mostly forward in time, now and then a step back, like
				// mic frames stamped at the start of their window.
				at += time.Duration(rng.Intn(20)-4) * time.Second
				recs[i] = record.Record{Local: at, Kind: record.KindAccel}
			}
			for _, r := range recs {
				one.markStale(id, r.Local)
			}
			many.markStaleBatch(id, recs)
			if !sameStale(one, many) {
				t.Logf("seed %d batch %d (badge %d, %d records, frozen %v): stale %v, want %v",
					seed, b, id, len(recs), many.rectified.Load(), many.stale, one.stale)
				return false
			}
			if rng.Bool(0.2) {
				// An analysis drains the marks on both sides alike.
				one.applyStale()
				many.applyStale()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sameStale compares two pipelines' pending marks; a nil and an empty
// stale set are the same set.
func sameStale(a, b *Pipeline) bool {
	if a.staleFlag.Load() != b.staleFlag.Load() || len(a.stale) != len(b.stale) {
		return false
	}
	return len(a.stale) == 0 || reflect.DeepEqual(a.stale, b.stale)
}
