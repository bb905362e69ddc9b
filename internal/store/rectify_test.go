package store_test

// The store holds raw device time and never rewrites a timestamp; clock
// rectification is the read view an analysis pipeline lays over a store
// (sociometry.Pipeline.View). These tests pin that contract from the
// store's side: each reads a raw series through a pipeline's view, checks
// the rectified reads, and checks that the series itself is untouched.

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/store"
	"icares/internal/timesync"
)

// newPipeline builds a one-astronaut pipeline over ds: astronaut "A" wears
// badge 1 on mission day 1.
func newPipeline(t *testing.T, ds *store.Dataset, opts ...sociometry.Option) *sociometry.Pipeline {
	t.Helper()
	p, err := sociometry.NewPipeline(sociometry.Source{
		Habitat:  habitat.Standard(),
		Data:     ds,
		Names:    []string{"A"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 1,
		LastDay:  1,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// badgeView returns badge 1 of ds as a pipeline built with opts reads it.
func badgeView(t *testing.T, ds *store.Dataset, opts ...sociometry.Option) store.View {
	t.Helper()
	v, ok := newPipeline(t, ds, opts...).View(1)
	if !ok {
		t.Fatal("badge 1 has no view")
	}
	return v
}

// withCorrection passes c as badge 1's correction.
func withCorrection(c timesync.Correction) sociometry.Option {
	return sociometry.WithCorrections(map[store.BadgeID]timesync.Correction{1: c})
}

// scan drains v.Iter(from, to, k) into a slice.
func scan(v store.View, from, to time.Duration, k record.Kind) []record.Record {
	var out []record.Record
	for it := v.Iter(from, to, k); it.Next(); {
		out = append(out, it.Record())
	}
	return out
}

// scanAll reads every record of v, all kinds.
func scanAll(v store.View) []record.Record { return scan(v, math.MinInt64, math.MaxInt64, 0) }

func accelAt(at time.Duration) record.Record {
	return record.Record{Local: at, Kind: record.KindAccel}
}

func TestSeriesRectify(t *testing.T) {
	ds := store.NewDataset()
	ds.Series(1).Append(accelAt(10 * time.Second))
	ds.Series(1).Append(accelAt(20 * time.Second))
	v := badgeView(t, ds, withCorrection(timesync.Correction{Offset: 5 * time.Second}))
	all := scanAll(v)
	if len(all) != 2 || all[0].Local != 5*time.Second || all[1].Local != 15*time.Second {
		t.Errorf("rectified = %v", all)
	}
	raw := ds.Series(1).All()
	if raw[0].Local != 10*time.Second || raw[1].Local != 20*time.Second {
		t.Errorf("series rewritten to %v, %v", raw[0].Local, raw[1].Local)
	}
}

// TestSeriesRectifyInvalidatesKindIndex pins that kind-filtered window reads
// through the view answer in rectified time even though the raw series'
// kind index was built first, and that the index still answers in raw time.
func TestSeriesRectifyInvalidatesKindIndex(t *testing.T) {
	ds := store.NewDataset()
	s := ds.Series(1)
	for i := 0; i < 100; i++ {
		k := record.KindAccel
		if i%2 == 0 {
			k = record.KindMic
		}
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: k})
	}
	if before := s.RangeKind(0, 10*time.Second, record.KindMic); len(before) != 5 {
		t.Fatalf("pre-rectify mic records = %d", len(before))
	}
	// ToReference(local) = local + 1h.
	v := badgeView(t, ds, withCorrection(timesync.Correction{Offset: -time.Hour}))
	if got := scan(v, 0, 10*time.Second, record.KindMic); len(got) != 0 {
		t.Errorf("stale kind index: %d records still in old window", len(got))
	}
	after := scan(v, time.Hour, time.Hour+10*time.Second, record.KindMic)
	if len(after) != 5 {
		t.Errorf("post-rectify mic records = %d, want 5", len(after))
	}
	for _, r := range after {
		if r.Local < time.Hour {
			t.Errorf("kind view has unrectified timestamp %v", r.Local)
		}
	}
	if got := s.RangeKind(0, 10*time.Second, record.KindMic); len(got) != 5 {
		t.Errorf("raw kind index: %d mic records in the raw window, want 5", len(got))
	}
}

func TestSeriesRectifyNonMonotonicResorts(t *testing.T) {
	ds := store.NewDataset()
	for i := 0; i < 10; i++ {
		ds.Series(1).Append(accelAt(time.Duration(i) * time.Second))
	}
	// Reverse time (1+Skew < 0): ToReference(local) = 100s - local. A
	// pathological correction must still read as a sorted series.
	v := badgeView(t, ds, withCorrection(timesync.Correction{Offset: 100 * time.Second, Skew: -2}))
	all := scanAll(v)
	for i := 1; i < len(all); i++ {
		if all[i].Local < all[i-1].Local {
			t.Fatal("view unsorted after non-monotonic rectify")
		}
	}
	if len(all) != 10 || all[0].Local != 91*time.Second || all[9].Local != 100*time.Second {
		t.Errorf("rectified bounds: %v .. %v (%d records)", all[0].Local, all[len(all)-1].Local, len(all))
	}
	if first, _ := ds.Series(1).First(); first.Local != 0 {
		t.Errorf("series rewritten: first record at %v", first.Local)
	}
}

// TestSetRectifierMatchesBatchRectify pins the incremental-rectification
// contract: records appended raw after a pipeline's view was built read
// through it exactly as if the whole series had been there from the start,
// while the series keeps the raw records and counts every append.
func TestSetRectifierMatchesBatchRectify(t *testing.T) {
	fix := withCorrection(timesync.Correction{Offset: 2 * time.Second, Skew: 20e-6})
	var raw []record.Record
	for i := 0; i < 1000; i++ {
		raw = append(raw, record.NewAccel(time.Duration(i)*7*time.Second+2*time.Second, int16(i), 0, 0))
	}

	batchDS := store.NewDataset()
	for _, r := range raw {
		batchDS.Series(1).Append(r)
	}
	batch := badgeView(t, batchDS, fix)

	incrDS := store.NewDataset()
	for _, r := range raw[:600] {
		incrDS.Series(1).Append(r)
	}
	incr := badgeView(t, incrDS, fix)
	if n := len(scanAll(incr)); n != 600 {
		t.Fatalf("prefix reads %d records, want 600", n)
	}
	for _, r := range raw[600:] {
		incrDS.Series(1).Append(r)
	}

	if !reflect.DeepEqual(scanAll(batch), scanAll(incr)) {
		t.Fatal("incremental rectify-on-read diverged from batch rectify")
	}
	if !reflect.DeepEqual(incrDS.Series(1).All(), raw) {
		t.Fatal("series does not hold the raw records")
	}
}

// TestDatasetRectifyOnce pins compute-once rectification over a shared
// dataset: concurrent first callers all get the one fitted correction map,
// every read sees each record rectified exactly once, and the dataset keeps
// raw device time.
func TestDatasetRectifyOnce(t *testing.T) {
	const offset, skew = 2 * time.Second, 30e-6
	toLocal := func(ref time.Duration) time.Duration {
		return offset + time.Duration(float64(ref)*(1+skew))
	}
	ds := store.NewDataset()
	s := ds.Series(1)
	for i := 0; i < 12; i++ {
		ref := time.Duration(i) * time.Hour
		s.Append(record.NewSync(toLocal(ref), ref))
	}
	raw := toLocal(30 * time.Minute)
	s.Append(accelAt(raw))
	p := newPipeline(t, ds)

	const goroutines = 8
	cors := make([]map[store.BadgeID]timesync.Correction, goroutines)
	errs := make([]error, goroutines)
	accel := make([][]record.Record, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cors[g], errs[g] = p.RectifyClocks()
			if v, ok := p.View(1); ok {
				accel[g] = scan(v, math.MinInt64, math.MaxInt64, record.KindAccel)
			}
		}(g)
	}
	wg.Wait()

	c, ok := cors[0][1]
	if errs[0] != nil || !ok || c.N == 0 {
		t.Fatalf("no correction fitted: %v, %+v", errs[0], cors[0])
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if reflect.ValueOf(cors[g]).Pointer() != reflect.ValueOf(cors[0]).Pointer() {
			t.Errorf("goroutine %d got corrections from a second fit", g)
		}
		if len(accel[g]) != 1 || accel[g][0].Local != c.ToReference(raw) {
			t.Fatalf("goroutine %d read %v, want one record at %v", g, accel[g], c.ToReference(raw))
		}
	}
	if d := accel[0][0].Local - 30*time.Minute; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("timestamp = %v, want ~30m (rectified exactly once)", accel[0][0].Local)
	}
	if got := s.Kind(record.KindAccel); len(got) != 1 || got[0].Local != raw {
		t.Errorf("dataset holds %v, want the raw timestamp %v", got, raw)
	}
}
