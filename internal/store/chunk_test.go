package store

import (
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// badgeAppender feeds a series the way a badge writes its card: accel
// samples in time order, and every 15 s a mic frame stamped at the start of
// its 15 s window, so behind the accel samples already written.
type badgeAppender struct {
	s   *Series
	sec int
}

// next appends one second of badge output and returns what it appended.
func (b *badgeAppender) next() []record.Record {
	b.sec++
	now := time.Duration(b.sec) * time.Second
	recs := []record.Record{record.NewAccel(now, int16(b.sec), 0, 0)}
	if b.sec%15 == 0 {
		recs = append(recs, record.NewMic(now-15*time.Second, false, float32(b.sec), 0, 0))
	}
	for _, r := range recs {
		b.s.Append(r)
	}
	return recs
}

// chunkedSeries returns a series of n appended records, in time order or
// with coarse, shuffled timestamps that tie across chunks.
func chunkedSeries(rng *stats.RNG, n int, disordered bool) *Series {
	s := &Series{}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		if disordered {
			at = time.Duration(rng.Intn(n/4+1)) * time.Second
		}
		s.Append(record.NewBeacon(at, uint16(i), 0))
	}
	return s
}

// Property: the badge append pattern — almost every mic frame lands behind
// the record ahead of it, reads come now and then — keeps All equal to a
// stable sort of the appends and leaves every view returned earlier
// unchanged.
func TestQuickBadgePatternMatchesStableSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := &Series{}
		b := &badgeAppender{s: s}
		var appended []record.Record
		type snapshot struct{ view, want []record.Record }
		var snaps []snapshot
		for steps := rng.Intn(48 * chunkMin); b.sec < steps; {
			appended = append(appended, b.next()...)
			if rng.Bool(0.002) {
				snaps = append(snaps, snapshot{s.All(), refSorted(appended)})
			}
		}
		snaps = append(snaps, snapshot{s.All(), refSorted(appended)})
		for _, sn := range snaps {
			if len(sn.view) != len(sn.want) {
				return false
			}
			for i := range sn.want {
				if sn.view[i] != sn.want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The first read of a multi-chunk or disordered series makes one
// allocation: the joined array, of exactly Len() records, which a
// disordered series is then sorted in — a lone disordered chunk too, so no
// sort writes the chunk an earlier view may alias.
func TestKWayMergeAllocatesOnce(t *testing.T) {
	for _, n := range []int{chunkMin / 2, chunkMin + 1, 10 * chunkMin, 40 * chunkMin} {
		for _, disordered := range []bool{false, true} {
			if n <= chunkMin && !disordered {
				continue // a lone chunk in time order is read as is
			}
			const reads = 10
			rng := stats.NewRNG(uint64(n))
			series := make([]*Series, reads+1) // AllocsPerRun calls once more to warm up
			for i := range series {
				series[i] = chunkedSeries(rng, n, disordered)
			}
			i := 0
			allocs := testing.AllocsPerRun(reads, func() {
				s := series[i]
				i++
				if recs := s.All(); cap(recs) != s.Len() {
					t.Errorf("n=%d: joined array holds %d records, want exactly %d", n, cap(recs), s.Len())
				}
			})
			if allocs != 1 {
				t.Errorf("n=%d disordered=%v: first read made %v allocations, want 1", n, disordered, allocs)
			}
		}
	}
}

// A read keeps no reference to a chunk it joined: every slot of the chunk
// list past the one joined chunk is nil, up to its capacity, so the old
// chunks are garbage once the first read returns.
func TestMergeReleasesOldRuns(t *testing.T) {
	s := &Series{}
	for b := (&badgeAppender{s: s}); s.Len() < 40*chunkMin; {
		b.next()
	}
	s.mu.RLock()
	if len(s.chunks) < 2 {
		t.Fatalf("%d records in %d chunk(s), want several", s.Len(), len(s.chunks))
	}
	s.mu.RUnlock()
	_ = s.All()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.chunks) != 1 {
		t.Fatalf("%d chunks after a read, want 1", len(s.chunks))
	}
	for i, c := range s.chunks[1:cap(s.chunks)] {
		if c != nil {
			t.Errorf("chunk slot %d still holds a %d-record chunk after the read", i+1, len(c))
		}
	}
}
