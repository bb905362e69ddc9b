package store

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

func mkRec(at time.Duration, k record.Kind) record.Record {
	return record.Record{Local: at, Kind: k}
}

func TestSeriesOrderedAppend(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(mkRec(time.Duration(i)*time.Second, record.KindAccel))
	}
	all := s.All()
	if len(all) != 10 {
		t.Fatalf("len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Local < all[i-1].Local {
			t.Fatal("not sorted")
		}
	}
}

func TestSeriesOutOfOrderAppendSorts(t *testing.T) {
	var s Series
	times := []time.Duration{5, 1, 3, 2, 4}
	for _, sec := range times {
		s.Append(mkRec(sec*time.Second, record.KindMic))
	}
	all := s.All()
	for i := 1; i < len(all); i++ {
		if all[i].Local < all[i-1].Local {
			t.Fatalf("not sorted: %v then %v", all[i-1].Local, all[i].Local)
		}
	}
}

func TestSeriesStableSortPreservesEqualTimestamps(t *testing.T) {
	var s Series
	s.Append(record.Record{Local: 2 * time.Second, Kind: record.KindBeacon, PeerID: 1})
	s.Append(record.Record{Local: time.Second, Kind: record.KindBeacon, PeerID: 9})
	s.Append(record.Record{Local: 2 * time.Second, Kind: record.KindBeacon, PeerID: 2})
	all := s.All()
	if all[1].PeerID != 1 || all[2].PeerID != 2 {
		t.Errorf("equal-timestamp order not preserved: %v, %v", all[1].PeerID, all[2].PeerID)
	}
}

func TestSeriesRange(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Append(mkRec(time.Duration(i)*time.Second, record.KindAccel))
	}
	got := s.Range(10*time.Second, 20*time.Second)
	if len(got) != 10 {
		t.Fatalf("range len = %d, want 10", len(got))
	}
	if got[0].Local != 10*time.Second || got[9].Local != 19*time.Second {
		t.Errorf("range bounds: %v .. %v", got[0].Local, got[9].Local)
	}
	if got := s.Range(200*time.Second, 300*time.Second); len(got) != 0 {
		t.Errorf("empty range returned %d", len(got))
	}
}

func TestSeriesKindFilters(t *testing.T) {
	var s Series
	for i := 0; i < 30; i++ {
		k := record.KindAccel
		if i%3 == 0 {
			k = record.KindMic
		}
		s.Append(mkRec(time.Duration(i)*time.Second, k))
	}
	if got := len(s.Kind(record.KindMic)); got != 10 {
		t.Errorf("mic records = %d, want 10", got)
	}
	if got := len(s.RangeKind(0, 9*time.Second, record.KindMic)); got != 3 {
		t.Errorf("ranged mic records = %d, want 3", got)
	}
}

func TestSeriesFirstLast(t *testing.T) {
	var s Series
	if _, ok := s.First(); ok {
		t.Error("First on empty series")
	}
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series")
	}
	s.Append(mkRec(5*time.Second, record.KindAccel))
	s.Append(mkRec(2*time.Second, record.KindAccel))
	first, _ := s.First()
	last, _ := s.Last()
	if first.Local != 2*time.Second || last.Local != 5*time.Second {
		t.Errorf("first/last = %v/%v", first.Local, last.Local)
	}
}

func TestSeriesEncodedBytes(t *testing.T) {
	var s Series
	if s.EncodedBytes() != 0 {
		t.Error("empty series has bytes")
	}
	s.Append(mkRec(time.Second, record.KindAccel))
	one := s.EncodedBytes()
	if one <= 0 {
		t.Fatalf("encoded bytes = %d", one)
	}
	s.Append(mkRec(2*time.Second, record.KindAccel))
	if s.EncodedBytes() <= one {
		t.Error("bytes did not grow")
	}
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset()
	if d.Has(1) {
		t.Error("Has on empty dataset")
	}
	d.Series(3).Append(mkRec(time.Second, record.KindAccel))
	d.Series(1).Append(mkRec(time.Second, record.KindMic))
	d.Series(1).Append(mkRec(2*time.Second, record.KindMic))
	if !d.Has(1) || !d.Has(3) || d.Has(2) {
		t.Error("Has wrong")
	}
	ids := d.Badges()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Errorf("badges = %v", ids)
	}
	if d.TotalRecords() != 3 {
		t.Errorf("total = %d", d.TotalRecords())
	}
	if d.EncodedBytes() <= 0 {
		t.Error("encoded bytes zero")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := NewDataset()
	rng := stats.NewRNG(5)
	for id := BadgeID(1); id <= 3; id++ {
		s := d.Series(id)
		for i := 0; i < 50; i++ {
			s.Append(record.Record{
				Local:  time.Duration(i) * time.Second,
				Kind:   record.KindBeacon,
				PeerID: uint16(rng.Intn(27) + 1),
				RSSI:   float32(rng.Range(-90, -40)),
			})
		}
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRecords() != d.TotalRecords() {
		t.Errorf("loaded %d records, want %d", got.TotalRecords(), d.TotalRecords())
	}
	for _, id := range d.Badges() {
		want := d.Series(id).All()
		have := got.Series(id).All()
		if len(want) != len(have) {
			t.Fatalf("badge %d: %d vs %d", id, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("badge %d record %d differs", id, i)
			}
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestLoadEmptyDir(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, ErrNoData) {
		t.Errorf("empty dir: %v", err)
	}
}

// Property: Range(a,b) equals a linear scan filter for random series.
func TestQuickRangeMatchesLinearScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		var s Series
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Append(mkRec(time.Duration(rng.Intn(1000))*time.Second, record.KindAccel))
		}
		from := time.Duration(rng.Intn(1000)) * time.Second
		to := from + time.Duration(rng.Intn(500))*time.Second
		got := s.Range(from, to)
		var want int
		for _, r := range s.All() {
			if r.Local >= from && r.Local < to {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSeriesConcurrentReadersOnDirtySeries(t *testing.T) {
	// Out-of-order appends leave the series dirty; concurrent readers then
	// race to trigger the lazy sort. Run with -race.
	var s Series
	rng := stats.NewRNG(3)
	for i := 0; i < 5000; i++ {
		s.Append(mkRec(time.Duration(rng.Intn(5000))*time.Second, record.KindBeacon))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if got := len(s.All()); got != 5000 {
					t.Errorf("All len = %d", got)
				}
			case 1:
				recs := s.Range(100*time.Second, 2000*time.Second)
				for i := 1; i < len(recs); i++ {
					if recs[i].Local < recs[i-1].Local {
						t.Error("range not sorted")
						return
					}
				}
			case 2:
				s.Kind(record.KindBeacon)
				s.First()
				s.Last()
			case 3:
				if s.Len() != 5000 {
					t.Error("bad len")
				}
				_ = s.EncodedBytes()
			}
		}(g)
	}
	wg.Wait()
}

func TestDatasetConcurrentSeriesCreation(t *testing.T) {
	// Many goroutines ask for the same small set of badges: each badge must
	// resolve to exactly one Series instance.
	d := NewDataset()
	const goroutines, badges = 16, 5
	got := make([][badges]*Series, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < badges; b++ {
				got[g][(b+g)%badges] = d.Series(BadgeID((b+g)%badges + 1))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for b := 0; b < badges; b++ {
			if got[g][b] != got[0][b] {
				t.Fatalf("badge %d: goroutine %d got a different Series instance", b+1, g)
			}
		}
	}
	if got := len(d.Badges()); got != badges {
		t.Errorf("badges = %d, want %d", got, badges)
	}
}
