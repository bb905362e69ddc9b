package store

import (
	"runtime"
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

// Property: the badge append pattern — almost every append lands in the
// tail, tails fill and reopen at full size, reads seal them early — keeps
// All equal to a stable sort of the appends and leaves every view returned
// earlier unchanged.
func TestQuickBadgePatternMatchesStableSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := &Series{}
		b := &badgeAppender{s: s}
		var appended []record.Record
		type snapshot struct{ view, want []record.Record }
		var snaps []snapshot
		for steps := rng.Intn(3 * maxTail); b.sec < steps; {
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

// A tail that filled reopens at maxTail capacity; a tail sealed early by a
// read reopens small.
func TestTailSizing(t *testing.T) {
	s := &Series{}
	b := &badgeAppender{s: s}
	tail := func() (n, c int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return len(s.tail), cap(s.tail)
	}
	for n, _ := tail(); s.Len() < 2*maxTail || n == 0; n, _ = tail() {
		b.next()
	}
	if _, c := tail(); c != maxTail {
		t.Errorf("tail after a full seal has capacity %d, want %d", c, maxTail)
	}
	_ = s.All()
	for n, _ := tail(); n == 0; n, _ = tail() {
		b.next()
	}
	if _, c := tail(); c >= maxTail {
		t.Errorf("tail after a read's early seal has capacity %d, want it small", c)
	}
}

// An alternating Append/All loop — live ingest under a reader — must not
// allocate a full-size tail per read: each read seals the tail early, and
// the next tail starts small.
func TestInterleavedReadsAllocateSmallTails(t *testing.T) {
	s := &Series{}
	b := &badgeAppender{s: s}
	for i := 0; i < 128; i++ {
		b.next()
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		b.next()
		// A straggler one second behind, so every read has a tail to seal.
		s.Append(record.Record{Local: time.Duration(b.sec-1) * time.Second, Kind: record.KindEnv})
		_ = s.All()
	}
	runtime.ReadMemStats(&after)
	// Each read merges the whole series (at most ~600 records, 42 KiB); a
	// full-size tail per read would add 288 KiB.
	const bound = 96 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > bound {
		t.Errorf("%d bytes allocated per append+read, want <= %d", per, bound)
	}
}
