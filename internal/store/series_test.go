package store

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// refSorted is the reference semantics a series' reads must match: a
// stable sort of the append sequence by timestamp.
func refSorted(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Local < out[j].Local })
	return out
}

// Property: for any append sequence — including ones long enough to cross
// many chunk boundaries, with reads in between — All() equals a stable sort
// of the appends, the per-kind views equal a kind filter over it, whichever
// of the two is read first, and every view read mid-sequence still holds
// what it held when it was read: no later sort writes an escaped view.
func TestQuickRunsMatchStableSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.Intn(48 * chunkMin)
		var s Series
		appended := make([]record.Record, 0, n)
		type snapshot struct{ view, held []record.Record }
		var snaps []snapshot
		for i := 0; i < n; i++ {
			// Coarse timestamps force plenty of equal-key ties; the peer
			// ID is the append order marker.
			r := record.NewBeacon(time.Duration(rng.Intn(n/4+1))*time.Second, uint16(i), 0)
			if rng.Bool(0.3) {
				r.Kind = record.KindNeighbor
			}
			s.Append(r)
			appended = append(appended, r)
			if rng.Bool(0.01) {
				// Interleave reads so joins and sorts happen mid-sequence
				// too, some of them over a chunk a view has escaped from.
				view := s.All()
				snaps = append(snaps, snapshot{view, slices.Clone(view)})
			}
		}
		want := refSorted(appended)
		var wantKind []record.Record
		for _, r := range want {
			if r.Kind == record.KindNeighbor {
				wantKind = append(wantKind, r)
			}
		}
		var got, kv []record.Record
		if rng.Bool(0.5) {
			got, kv = s.All(), s.Kind(record.KindNeighbor)
		} else {
			kv, got = s.Kind(record.KindNeighbor), s.All()
		}
		if !slices.Equal(got, want) || !slices.Equal(kv, wantKind) {
			return false
		}
		for _, sn := range snaps {
			if !slices.Equal(sn.view, sn.held) {
				t.Logf("seed %d: a view of %d records changed after it was read", seed, len(sn.view))
				return false
			}
		}
		return true
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
	// records land in different chunks and on either side of a read.
	var s Series
	for i := 0; i < chunkMin+10; i++ {
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindAccel})
	}
	// Out-of-order burst in the second chunk, colliding with a timestamp
	// in the first.
	s.Append(record.NewBeacon(5*time.Second, 100, 0))
	s.Append(record.NewBeacon(5*time.Second, 101, 0))
	_ = s.All() // join + sort
	s.Append(record.NewBeacon(5*time.Second, 102, 0))
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
	// Out-of-order appends, then a SaveSegments/OpenSegments round trip: the
	// archived series must come back in the same fully sorted order the
	// writer saw.
	dir := t.TempDir()
	d := NewDataset()
	s := d.Series(7)
	rng := stats.NewRNG(21)
	for i := 0; i < 32*chunkMin; i++ {
		s.Append(record.NewNeighbor(time.Duration(rng.Intn(10000))*time.Millisecond, uint16(i), 0))
	}
	want := s.All()
	for i := 1; i < len(want); i++ {
		if want[i].Local < want[i-1].Local {
			t.Fatal("source series not sorted")
		}
	}
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	ss, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	have := scan(mustView(t, ss, 7), minDuration, maxDuration, 0)
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
	if sized <= 0 {
		t.Fatalf("bytes = %d", sized)
	}
	// An unknown kind cannot be size-accounted: it adds no bytes but is
	// still stored.
	s.Append(record.Record{Local: 2 * time.Second, Kind: record.Kind(250)})
	if s.EncodedBytes() != sized {
		t.Error("unknown kind changed byte accounting")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2 (record still stored)", s.Len())
	}
}

func TestSeriesEncodedBytesMatchesFrames(t *testing.T) {
	// The O(1) accounting must agree with the bytes the frame codec
	// actually emits for the same records.
	var s Series
	rng := stats.NewRNG(9)
	for i := 0; i < 500; i++ {
		s.Append(record.NewSync(time.Duration(rng.Intn(100000))*time.Millisecond, time.Duration(rng.Uint64()%uint64(14*24*time.Hour))))
	}
	var frames []byte
	for _, r := range s.All() {
		var err error
		if frames, err = record.AppendFrame(frames, r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.EncodedBytes(), int64(len(frames)); got != want {
		t.Errorf("EncodedBytes = %d, framed bytes = %d", got, want)
	}
}

// Property: Series.Times yields exactly the timestamps of Range over the
// same window — full, random and inverted — in batches of at most
// timesBatch, across sizes that span several batches and out-of-order
// appends.
func TestQuickSeriesTimesMatchesRange(t *testing.T) {
	f := func(seed uint64, a, b int32) bool {
		rng := stats.NewRNG(seed)
		var s Series
		n := rng.Intn(3 * timesBatch)
		for i := 0; i < n; i++ {
			s.Append(record.NewAccel(time.Duration(rng.Intn(600))*time.Second, int16(i), 0, 0))
		}
		windows := [][2]time.Duration{
			{math.MinInt64, math.MaxInt64},
			{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond},
			{time.Duration(b) * time.Millisecond, time.Duration(a) * time.Millisecond},
		}
		for _, w := range windows {
			want := s.Range(w[0], w[1])
			var got []time.Duration
			it := s.Times(w[0], w[1])
			for b := it.NextBatch(); b != nil; b = it.NextBatch() {
				if len(b) == 0 || len(b) > timesBatch {
					t.Logf("Times(%v, %v) batch of %d", w[0], w[1], len(b))
					return false
				}
				got = append(got, b...)
			}
			if len(got) != len(want) {
				t.Logf("Times(%v, %v) = %d timestamps, want %d", w[0], w[1], len(got), len(want))
				return false
			}
			for i := range want {
				if got[i] != want[i].Local {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
