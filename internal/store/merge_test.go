package store

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// kRunSeries returns a series laid out as exactly k sorted runs, each at
// exactly its length's capacity, and the append sequence they stand for
// (the runs' concatenation, oldest run first). Timestamps are coarse, so
// equal keys fall in many runs at once.
func kRunSeries(rng *stats.RNG, k, maxLen int) (*Series, []record.Record) {
	s := &Series{}
	var appended []record.Record
	for i := 0; i < k; i++ {
		run := make([]record.Record, 1+rng.Intn(maxLen))
		for j := range run {
			// The peer ID is the append order marker.
			run[j] = record.NewBeacon(time.Duration(rng.Intn(maxLen/4+1))*time.Second, uint16(len(appended)+j), 0)
			if rng.Bool(0.3) {
				run[j].Kind = record.KindNeighbor
			}
		}
		slices.SortStableFunc(run, func(a, b record.Record) int { return cmp.Compare(a.Local, b.Local) })
		s.runs = append(s.runs, run)
		appended = append(appended, run...)
	}
	return s, appended
}

// Property: 2..maxRuns+1 runs with many cross-run ties read back as the
// stable sort of the append sequence, whether the first read is All or a
// Kind query.
func TestQuickKWayMergeMatchesStableSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := 2 + rng.Intn(maxRuns)
		s, appended := kRunSeries(rng, k, 300)
		twin := &Series{runs: slices.Clone(s.runs)}
		want := refSorted(appended)
		if !slices.Equal(s.All(), want) {
			return false
		}
		var wantKind []record.Record
		for _, r := range want {
			if r.Kind == record.KindNeighbor {
				wantKind = append(wantKind, r)
			}
		}
		return slices.Equal(twin.Kind(record.KindNeighbor), wantKind)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The first read of a k-run series no view has escaped from makes one
// allocation: the merged array, of exactly Len() records.
func TestKWayMergeAllocatesOnce(t *testing.T) {
	for k := 2; k <= maxRuns+1; k++ {
		const reads = 10
		rng := stats.NewRNG(uint64(k))
		series := make([]*Series, reads+1) // AllocsPerRun calls once more to warm up
		for i := range series {
			series[i], _ = kRunSeries(rng, k, 2000)
		}
		i := 0
		allocs := testing.AllocsPerRun(reads, func() {
			s := series[i]
			i++
			if recs := s.All(); cap(recs) != s.Len() {
				t.Errorf("k=%d: merged array holds %d records, want exactly %d", k, cap(recs), s.Len())
			}
		})
		if allocs != 1 {
			t.Errorf("k=%d: first read made %v allocations, want 1", k, allocs)
		}
	}
}

// A badge-shaped tail — accel in order, each mic frame stamped 15 s back —
// stays sorted through its stragglers' in-place inserts, so its seal sorts
// nothing; a straggler further back than maxShift leaves it unsorted.
func TestTailStaysSortedThroughShortStragglers(t *testing.T) {
	s := &Series{}
	b := &badgeAppender{s: s}
	for s.Len() < maxTail/2 {
		b.next()
	}
	s.mu.RLock()
	sorted, n := s.tailSorted, len(s.tail)
	s.mu.RUnlock()
	if n == 0 || !sorted {
		t.Fatalf("badge tail of %d records: sorted %v, want a sorted non-empty tail", n, sorted)
	}
	s.Append(record.Record{Local: 0, Kind: record.KindEnv}) // maxShift+ records back
	s.mu.RLock()
	sorted = s.tailSorted
	s.mu.RUnlock()
	if sorted {
		t.Error("a straggler beyond maxShift left the tail marked sorted")
	}
}

// A merged series keeps no reference to a run it merged away: every slot
// of the run list past the one merged run is nil, up to its capacity, so
// the old runs' arrays are garbage once the first read returns.
func TestMergeReleasesOldRuns(t *testing.T) {
	s := &Series{}
	for b := (&badgeAppender{s: s}); s.Len() < (maxRuns+3)*maxTail; {
		b.next()
	}
	_ = s.All()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, run := range s.runs[1:cap(s.runs)] {
		if run != nil {
			t.Errorf("run slot %d still holds a %d-record run after the merge", i+1, len(run))
		}
	}
}
