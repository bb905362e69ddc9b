package store

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// Once its first chunk exists, a reserved series with no subscriber, fed
// in order in 64-record batches or one Append at a time, appends into that
// chunk's capacity and allocates nothing more: Append builds no batch of
// one for a publish nobody hears.
func TestReservedSeriesAppendsWithoutAllocating(t *testing.T) {
	const batch, batches = 64, 100
	recs := make([]record.Record, batch*(batches+2))
	for i := range recs {
		recs[i] = record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindAccel}
	}
	for _, tc := range []struct {
		name string
		add  func(*Series, []record.Record)
	}{
		{"AppendBatch", (*Series).AppendBatch},
		{"Append", func(s *Series, recs []record.Record) {
			for _, r := range recs {
				s.Append(r)
			}
		}},
	} {
		d := NewDataset()
		d.Reserve(1, len(recs))
		s := d.Series(1)
		tc.add(s, recs[:batch])
		next := batch
		allocs := testing.AllocsPerRun(batches, func() {
			tc.add(s, recs[next:next+batch])
			next += batch
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per reserved in-order batch, want 0", tc.name, allocs)
		}
		if got := s.All(); !slices.Equal(got, recs[:next]) {
			t.Errorf("%s: reserved series reads %d records, want the %d appended in order", tc.name, len(got), next)
		}
	}
}

// Property: a reservation changes allocation only. Over-, under- and
// exactly sized reservations, fed in order or with stragglers, read the
// same records, kinds, sizes and byte counts as an unreserved series.
func TestQuickReservationReadsLikeNoReservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(32*chunkMin)
		ooo := rng.Bool(0.5)
		recs := make([]record.Record, n)
		for i := range recs {
			at := time.Duration(i) * time.Second
			if ooo && rng.Bool(0.1) {
				at -= time.Duration(rng.Intn(200)) * time.Second
			}
			recs[i] = record.NewBeacon(at, uint16(i), 0)
			if rng.Bool(0.3) {
				recs[i].Kind = record.KindNeighbor
			}
		}
		plain := NewDataset().Series(1)
		plain.AppendBatch(recs)
		for _, reserve := range []int{n / 3, n, 3 * n} {
			d := NewDataset()
			d.Reserve(1, reserve)
			s := d.Series(1)
			for rest := recs; len(rest) > 0; {
				k := min(len(rest), 1+rng.Intn(64))
				s.AppendBatch(rest[:k])
				rest = rest[k:]
			}
			if !slices.Equal(s.All(), plain.All()) || s.Len() != plain.Len() ||
				!slices.Equal(s.Kind(record.KindNeighbor), plain.Kind(record.KindNeighbor)) ||
				s.EncodedBytes() != plain.EncodedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A reservation creates no series: a badge reserved but never appended to
// is neither listed nor viewable, and one that is appended to appears
// as usual. A reservation for a series that already holds records is
// ignored.
func TestReserveCreatesNoSeries(t *testing.T) {
	d := NewDataset()
	d.Reserve(7, 1000)
	d.Reserve(8, 1000)
	d.Series(8).Append(record.Record{Local: time.Second, Kind: record.KindAccel})
	if got := d.Badges(); !slices.Equal(got, []BadgeID{8}) {
		t.Errorf("Badges() = %v, want [8]", got)
	}
	if _, ok := d.View(7); ok {
		t.Error("View(7) found a series for a badge that was only reserved")
	}
	d.Reserve(8, 1<<20)
	s := d.Series(8)
	s.mu.RLock()
	c := cap(s.chunks[0])
	s.mu.RUnlock()
	if c != 1000 {
		t.Errorf("first chunk capacity %d, want the reserved 1000 (later reservation ignored)", c)
	}
}
