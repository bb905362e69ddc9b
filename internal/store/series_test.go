package store

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// refSorted is the reference semantics the sorted-run layout must match: a
// stable sort of the append sequence by timestamp.
func refSorted(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Local < out[j].Local })
	return out
}

// Property: for any append sequence — including ones long enough to cross
// tail seals and run compactions — All() equals a stable sort of the
// appends, and the per-kind views equal a kind filter over it.
func TestQuickRunsMatchStableSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Intn(3 * maxTail)
		var s Series
		appended := make([]record.Record, 0, n)
		for i := 0; i < n; i++ {
			r := record.Record{
				// Coarse timestamps force plenty of equal-key ties.
				Local:  time.Duration(rng.Intn(n/4+1)) * time.Second,
				Kind:   record.KindBeacon,
				PeerID: uint16(i), // append order marker
			}
			if rng.Bool(0.3) {
				r.Kind = record.KindNeighbor
			}
			s.Append(r)
			appended = append(appended, r)
			if rng.Bool(0.01) {
				// Interleave reads so merging happens mid-sequence too.
				_ = s.All()
			}
		}
		want := refSorted(appended)
		got := s.All()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		kv := s.Kind(record.KindNeighbor)
		j := 0
		for _, r := range want {
			if r.Kind != record.KindNeighbor {
				continue
			}
			if j >= len(kv) || kv[j] != r {
				return false
			}
			j++
		}
		return j == len(kv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Regression: an inverted window (from > to) used to slice recs[lo:hi]
// with hi < lo and panic; it must return empty like any other empty window.
func TestSeriesInvertedWindowEmpty(t *testing.T) {
	var s Series
	for i := 0; i < 50; i++ {
		k := record.KindAccel
		if i%2 == 0 {
			k = record.KindMic
		}
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: k})
	}
	cases := [][2]time.Duration{
		{30 * time.Second, 10 * time.Second},
		{49 * time.Second, 0},
		{100 * time.Second, -100 * time.Second},
		{20 * time.Second, 20 * time.Second},
	}
	for _, c := range cases {
		if got := s.Range(c[0], c[1]); len(got) != 0 {
			t.Errorf("Range(%v, %v) = %d records, want 0", c[0], c[1], len(got))
		}
		if got := s.RangeKind(c[0], c[1], record.KindMic); len(got) != 0 {
			t.Errorf("RangeKind(%v, %v) = %d records, want 0", c[0], c[1], len(got))
		}
	}
}

// Property: any window with from >= to is empty, for both Range and
// RangeKind, over any series shape.
func TestQuickDegenerateWindowsEmpty(t *testing.T) {
	f := func(seed uint64, a, b int32) bool {
		rng := stats.NewRNG(seed)
		var s Series
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			k := record.KindAccel
			if rng.Bool(0.5) {
				k = record.KindBeacon
			}
			s.Append(record.Record{Local: time.Duration(rng.Intn(120)) * time.Second, Kind: k})
		}
		from := time.Duration(a) * time.Millisecond
		to := time.Duration(b) * time.Millisecond
		if from < to {
			from, to = to, from
		}
		return len(s.Range(from, to)) == 0 &&
			len(s.RangeKind(from, to, record.KindAccel)) == 0 &&
			len(s.RangeKind(from, to, record.KindBeacon)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSeriesStableAcrossSealBoundaries(t *testing.T) {
	// Equal timestamps must keep append order even when the colliding
	// records land in different runs (one sealed, one in a later tail).
	var s Series
	for i := 0; i < maxTail+10; i++ {
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindAccel})
	}
	// Out-of-order burst that seals into its own run, colliding with
	// timestamps already in the first run.
	s.Append(record.Record{Local: 5 * time.Second, Kind: record.KindBeacon, PeerID: 100})
	s.Append(record.Record{Local: 5 * time.Second, Kind: record.KindBeacon, PeerID: 101})
	_ = s.All() // seal + merge
	s.Append(record.Record{Local: 5 * time.Second, Kind: record.KindBeacon, PeerID: 102})
	got := s.Range(5*time.Second, 5*time.Second+1)
	if len(got) != 4 {
		t.Fatalf("collision group = %d records", len(got))
	}
	if got[0].Kind != record.KindAccel || got[1].PeerID != 100 || got[2].PeerID != 101 || got[3].PeerID != 102 {
		t.Errorf("append order lost at equal timestamps: %+v", got)
	}
}

func TestSeriesInterleavedAppendAndReads(t *testing.T) {
	// Appends may interleave with readers: merges build fresh arrays, so a
	// view returned before an append stays a consistent snapshot. Run with
	// -race.
	var s Series
	rng := stats.NewRNG(11)
	const total = 20000
	pre := 1000
	for i := 0; i < pre; i++ {
		s.Append(mkRec(time.Duration(rng.Intn(1000))*time.Second, record.KindBeacon))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wrng := stats.NewRNG(12)
		for i := pre; i < total; i++ {
			s.Append(mkRec(time.Duration(wrng.Intn(1000))*time.Second, record.KindBeacon))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 4 {
				case 0:
					view := s.All()
					for i := 1; i < len(view); i++ {
						if view[i].Local < view[i-1].Local {
							t.Error("view not sorted")
							return
						}
					}
				case 1:
					recs := s.Range(100*time.Second, 500*time.Second)
					for _, r := range recs {
						if r.Local < 100*time.Second || r.Local >= 500*time.Second {
							t.Error("range bounds violated")
							return
						}
					}
				case 2:
					kv := s.RangeKind(0, 1000*time.Second, record.KindBeacon)
					for i := 1; i < len(kv); i++ {
						if kv[i].Local < kv[i-1].Local {
							t.Error("kind view not sorted")
							return
						}
					}
				case 3:
					if n := s.Len(); n < pre || n > total {
						t.Errorf("len = %d out of bounds", n)
						return
					}
					_ = s.EncodedBytes()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != total {
		t.Errorf("final len = %d, want %d", s.Len(), total)
	}
}

func TestSeriesOutOfOrderSaveLoadOrdering(t *testing.T) {
	// Out-of-order appends, then a Save/Load round trip: the loaded series
	// must come back in the same fully sorted order the writer saw.
	dir := t.TempDir()
	d := NewDataset()
	s := d.Series(7)
	rng := stats.NewRNG(21)
	for i := 0; i < 2*maxTail; i++ {
		s.Append(record.Record{
			Local:  time.Duration(rng.Intn(10000)) * time.Millisecond,
			Kind:   record.KindNeighbor,
			PeerID: uint16(i),
		})
	}
	want := s.All()
	for i := 1; i < len(want); i++ {
		if want[i].Local < want[i-1].Local {
			t.Fatal("source series not sorted")
		}
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	have := got.Series(7).All()
	if len(have) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestSeriesUnsizedAccounting(t *testing.T) {
	var s Series
	s.Append(mkRec(time.Second, record.KindAccel))
	sized := s.EncodedBytes()
	if sized <= 0 || s.Unsized() != 0 {
		t.Fatalf("bytes = %d, unsized = %d", sized, s.Unsized())
	}
	// An unknown kind cannot be size-accounted; the undercount must be
	// observable instead of silent.
	s.Append(record.Record{Local: 2 * time.Second, Kind: record.Kind(250)})
	if s.EncodedBytes() != sized {
		t.Error("unknown kind changed byte accounting")
	}
	if s.Unsized() != 1 {
		t.Errorf("unsized = %d, want 1", s.Unsized())
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2 (record still stored)", s.Len())
	}
}

func TestSeriesEncodedBytesMatchesLogWriter(t *testing.T) {
	// The O(1) accounting must agree with what Save actually writes, minus
	// the fixed 7-byte log header.
	dir := t.TempDir()
	d := NewDataset()
	s := d.Series(4)
	rng := stats.NewRNG(9)
	for i := 0; i < 500; i++ {
		s.Append(record.Record{
			Local:   time.Duration(rng.Intn(100000)) * time.Millisecond,
			Kind:    record.KindSync,
			RefTime: time.Duration(rng.Uint64() % uint64(14*24*time.Hour)),
		})
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, logFileName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.EncodedBytes(), fi.Size()-7; got != want {
		t.Errorf("EncodedBytes = %d, on-disk frames = %d", got, want)
	}
}
