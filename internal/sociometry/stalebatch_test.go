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
// stale set (and stale flag, which every record raises, marked or not)
// that markStale leaves record by record. The
// batches cluster around midnights, so many of them cross a day boundary
// in raw or in corrected time, and they reach days before, inside and
// after the analysis range. About one record in ten is a wear record, so
// the sets must agree on which marks hold one too. Badge 1 carries a
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
		for b := 0; b < batches; b++ {
			id := store.BadgeID(1 + rng.Intn(2))
			at := simtime.StartOfDay(1+rng.Intn(6)) + time.Duration(rng.Intn(240)-120)*time.Second
			recs := make([]record.Record, rng.Intn(30))
			for i := range recs {
				// Mostly forward in time, now and then a step back, like
				// mic frames stamped at the start of their window.
				at += time.Duration(rng.Intn(20)-4) * time.Second
				recs[i] = record.Record{Local: at, Kind: record.KindAccel}
				if rng.Bool(0.1) {
					recs[i].Kind = record.KindWear
				}
			}
			for _, r := range recs {
				markStale(one, id, r)
			}
			many.markStaleBatch(id, recs)
			if !sameStale(one, many) {
				t.Logf("seed %d batch %d (badge %d, %d records): stale %v, want %v",
					seed, b, id, len(recs), many.stale, one.stale)
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

// markStale is the one-record reference form of markStaleBatch: it marks
// the record's reference-time day, if that is a data day, and raises the
// stale flag either way.
func markStale(p *Pipeline, id store.BadgeID, r record.Record) {
	day := simtime.DayOf(p.corrections[id].ToReference(r.Local))
	if day >= p.src.FirstDay && day <= p.src.LastDay {
		p.markDay(staleKey{id, day}, r.Kind == record.KindWear)
	}
	p.staleFlag.Store(true)
}

// sameStale compares two pipelines' pending marks; a nil and an empty
// stale set are the same set.
func sameStale(a, b *Pipeline) bool {
	if a.staleFlag.Load() != b.staleFlag.Load() || len(a.stale) != len(b.stale) {
		return false
	}
	return len(a.stale) == 0 || reflect.DeepEqual(a.stale, b.stale)
}
