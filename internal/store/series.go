package store

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icares/internal/record"
)

// Tuning knobs of the sorted-run layout.
const (
	// maxTail bounds the unsorted tail before it is sealed into a sorted
	// run, so no single seal ever stable-sorts more than this many records.
	maxTail = 4096
	// maxRuns bounds the number of sorted runs held between reads; beyond
	// it, the smallest adjacent pair is merged so a read never k-way merges
	// an unbounded fan-in.
	maxRuns = 8
	// maxShift bounds how far from the tail's end a straggler may land and
	// still be inserted in place, keeping the tail sorted; one further back
	// leaves the tail for its seal to sort. A badge's mic frame lands at
	// most 7 records back, and shifting 64 records moves under 5 KiB.
	maxShift = 64
)

// Series is the time-ordered record log of one badge, laid out as sorted
// runs. In-order appends extend the newest run directly. An out-of-order
// append opens a small tail that takes every append after it until it is
// sealed into a sorted run of its own (see fullTail for how tails are
// sized). A straggler whose slot lies within maxShift records of the
// tail's end is inserted in place, so the tail stays sorted and its seal
// sorts only on real disorder. A badge's mic frames are stamped at the
// start of their window, so on a badge almost every append goes through a
// tail, and every one of those stragglers is such a short move.
//
// A read merges the runs in one pass into one array of exactly Len()
// records — never a full re-sort. A series created through a reserving
// Dataset allocates its first run at the reserved capacity, so a feed
// appended in order fills one array without regrowing. Per-kind
// sub-series are indexed lazily so Kind/RangeKind answer from a cached,
// time-ordered view instead of scanning every record.
//
// Concurrency: any number of readers (All, Range, Kind, RangeKind, First,
// Last, Len) may run concurrently, and Append and AppendBatch may
// interleave with them — merges build new backing arrays, so previously
// returned views stay valid snapshots. AppendBatch applies its whole batch
// under one lock, so a reader sees all of a batch or none of it. Stored
// timestamps are never rewritten: a series holds raw device time, and
// clock correction is applied by the reader (the analysis pipeline's
// rectified view).
type Series struct {
	mu sync.RWMutex

	// owner and id, set by Dataset.Series, name the dataset whose
	// subscribers see this series' appends and the badge they are published
	// under. Publishing runs outside the series lock, once per Append or
	// AppendBatch call.
	owner *Dataset
	id    BadgeID

	// runs partition the append sequence in order: every record in runs[i]
	// was appended before every record in runs[i+1], and each run is
	// internally sorted by Local (stable). tail holds appends not yet
	// sealed into a run, in arrival order.
	runs       [][]record.Record
	tail       []record.Record
	tailSorted bool
	// fullTail records that the last seal was of a tail that reached
	// maxTail. A tail that filled once fills again, so the next one is
	// allocated at maxTail capacity in one go and takes in-order appends
	// too; after an early seal forced by a read, the next tail starts small
	// and append grows it geometrically, so a reader interleaved with live
	// ingest does not pay for a full tail per read.
	fullTail bool

	// reserve is the capacity the first run is allocated at (Dataset.Reserve);
	// it is spent when that run is created.
	reserve int

	// kinds caches per-kind, time-ordered sub-views of the merged series,
	// built lazily per requested kind and dropped on any write.
	kinds map[record.Kind][]record.Record

	// exposed reports whether a view aliasing runs[0]'s backing array has
	// been returned to a caller. While false (ingest before the first
	// read), merges may reuse that array's spare capacity in place; once
	// true, merges must build fresh arrays so outstanding views stay valid
	// snapshots. Atomic because the read fast path flags it under RLock.
	exposed atomic.Bool

	// bytes is O(1) size accounting via record.EncodedSize; records of
	// unknown kinds, which the encoder would also reject, add nothing.
	bytes int64
}

// Append adds a record to the series and publishes the append to the
// owning dataset's subscribers.
func (s *Series) Append(r record.Record) {
	s.AppendBatch([]record.Record{r})
}

// AppendBatch adds recs to the series in order, with the same result as
// one Append per record: the same runs and sizes. It takes the series
// lock once and publishes the whole batch to subscribers in one delivery,
// which is what makes it the bulk-ingest path. recs is not retained.
func (s *Series) AppendBatch(recs []record.Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	for _, r := range recs {
		s.appendLocked(r)
	}
	owner, id := s.owner, s.id
	s.mu.Unlock()
	if owner != nil {
		owner.publish(id, recs)
	}
}

func (s *Series) appendLocked(r record.Record) {
	if sz, err := record.EncodedSize(r); err == nil {
		s.bytes += int64(sz)
	}
	s.kinds = nil
	if len(s.tail) == 0 {
		switch n := len(s.runs); {
		case s.fullTail:
			// In-order appends stay in the tail too: extending the sealed
			// run, whose capacity the tail filled, would copy all of it.
			s.tail = make([]record.Record, 0, maxTail)
		case n == 0:
			s.runs = append(s.runs, append(make([]record.Record, 0, max(s.reserve, 1)), r))
			s.reserve = 0
			return
		case r.Local >= s.runs[n-1][len(s.runs[n-1])-1].Local:
			s.runs[n-1] = append(s.runs[n-1], r)
			return
		}
		s.tailSorted = true
		s.tail = append(s.tail, r)
	} else {
		s.tailAppendLocked(r)
	}
	if len(s.tail) >= maxTail {
		s.sealTailLocked()
		s.fullTail = true
	}
}

// tailAppendLocked adds r to a non-empty tail. A straggler whose stable
// slot — after every record at or before its timestamp — lies within
// maxShift records of a sorted tail's end is inserted there, so the tail
// stays sorted; any other straggler is appended and the tail marked
// unsorted.
func (s *Series) tailAppendLocked(r record.Record) {
	n := len(s.tail)
	if r.Local >= s.tail[n-1].Local {
		s.tail = append(s.tail, r)
		return
	}
	lo := max(n-maxShift, 0)
	if !s.tailSorted || (lo > 0 && s.tail[lo-1].Local > r.Local) {
		s.tailSorted = false
		s.tail = append(s.tail, r)
		return
	}
	near := s.tail[lo:]
	at := lo + sort.Search(len(near), func(i int) bool { return near[i].Local > r.Local })
	s.tail = slices.Insert(s.tail, at, r)
}

// sealTailLocked sorts the tail (if needed) and turns it into the newest
// run, compacting the run set if it grew past maxRuns.
func (s *Series) sealTailLocked() {
	if len(s.tail) == 0 {
		return
	}
	run := s.tail
	if !s.tailSorted {
		slices.SortStableFunc(run, func(a, b record.Record) int { return cmp.Compare(a.Local, b.Local) })
	}
	s.runs = append(s.runs, run)
	s.tail = nil
	s.tailSorted = true
	s.fullTail = false
	for len(s.runs) > maxRuns {
		best := 0
		for i := 1; i < len(s.runs)-1; i++ {
			if len(s.runs[i])+len(s.runs[i+1]) < len(s.runs[best])+len(s.runs[best+1]) {
				best = i
			}
		}
		s.runs[best] = mergeRuns(s.runs[best : best+2])
		s.runs = slices.Delete(s.runs, best+1, best+2) // zeroes the vacated slot
	}
}

// materializeLocked collapses tail and runs into a single sorted run — the
// canonical time-ordered view reads return. Ties keep append order: older
// runs win, so the result equals a stable sort of the append sequence. The
// common two-run case (one big sorted run, one run of stragglers) merges
// into the big run's spare capacity when no view of it has escaped yet,
// avoiding a full-series allocation on the first post-ingest read; every
// other merge is one pass into one fresh array of exactly Len() records.
func (s *Series) materializeLocked() []record.Record {
	s.sealTailLocked()
	switch len(s.runs) {
	case 0:
		return nil
	case 1:
	case 2:
		if a, b := s.runs[0], s.runs[1]; !s.exposed.Load() && cap(a) >= len(a)+len(b) {
			s.runs[0] = mergeInto(a, b)
			break
		}
		fallthrough
	default:
		s.runs[0] = mergeRuns(s.runs)
		s.exposed.Store(false)
	}
	clear(s.runs[1:])
	s.runs = s.runs[:1]
	return s.runs[0]
}

// mergeInto merges sorted run b into a's backing array in place (a must
// have the capacity; callers guarantee no view of a has escaped). It works
// back to front with the same galloping chunk copies as mergeRuns, and the
// same tie rule: a is the older run, so its records stay ahead of equal
// timestamps from b.
func mergeInto(a, b []record.Record) []record.Record {
	out := a[: len(a)+len(b) : len(a)+len(b)]
	i, j, w := len(a)-1, len(b)-1, len(out)-1
	for i >= 0 && j >= 0 {
		if a[i].Local > b[j].Local {
			// The trailing a-chunk strictly above b's head moves right.
			k := sort.Search(i+1, func(n int) bool { return a[n].Local > b[j].Local })
			copy(out[w-(i-k):w+1], a[k:i+1])
			w -= i - k + 1
			i = k - 1
		} else {
			// The trailing b-chunk at or above a's head lands next (ties
			// from b stay behind a's equal records).
			k := sort.Search(j+1, func(n int) bool { return b[n].Local >= a[i].Local })
			copy(out[w-(j-k):w+1], b[k:j+1])
			w -= j - k + 1
			j = k - 1
		}
	}
	copy(out[:j+1], b[:j+1]) // leftovers of a are already in place
	return out
}

// mergeRuns merges sorted runs, oldest first, into one new array of
// exactly their total length — its only allocation while there are at
// most maxRuns+1 runs. Ties keep append order: of equal timestamps, the
// older run's records come first, so the result is the stable sort of the
// runs' concatenation. It gallops: each step takes the run with the
// smallest head (the oldest of equal heads), finds by exponential search
// how far that run stays ahead of every other run's head, and bulk-copies
// the whole chunk, so the common shape — long runs that barely overlap —
// merges at memmove speed rather than one 72-byte record at a time.
func mergeRuns(runs [][]record.Record) []record.Record {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	out := make([]record.Record, 0, n)
	var heads [maxRuns + 1][]record.Record
	live := append(heads[:0], runs...) // the unmerged rest of each run; none is empty
	for len(live) > 1 {
		c := 0
		for i := 1; i < len(live); i++ {
			if live[i][0].Local < live[c][0].Local {
				c = i
			}
		}
		// live[c] leads while it stays below every older run's head (the
		// older run wins a tie) and at or below every newer run's head.
		var older, newer time.Duration = math.MaxInt64, math.MaxInt64
		for i, run := range live {
			switch {
			case i < c:
				older = min(older, run[0].Local)
			case i > c:
				newer = min(newer, run[0].Local)
			}
		}
		run := live[c]
		k := gallop(run, func(r record.Record) bool { return r.Local >= older || r.Local > newer })
		out = append(out, run[:k]...)
		if k < len(run) {
			live[c] = run[k:]
		} else {
			live = slices.Delete(live, c, c+1)
		}
	}
	return append(out, live[0]...)
}

// gallop returns the first index of run at which past holds (len(run) if
// none), for a predicate that is false on a prefix of run and true after
// it. It probes 1, 2, 4, … then binary-searches the last stride, so a
// short prefix costs a few comparisons however long the run.
func gallop(run []record.Record, past func(record.Record) bool) int {
	hi := 1
	for hi < len(run) && !past(run[hi]) {
		hi *= 2
	}
	lo := hi / 2
	hi = min(hi, len(run))
	return lo + sort.Search(hi-lo, func(i int) bool { return past(run[lo+i]) })
}

// singleLocked reports whether the series is already a single sorted run
// with no pending tail — the state in which reads are lock-upgrade-free.
func (s *Series) singleLocked() bool {
	return len(s.tail) == 0 && len(s.runs) <= 1
}

// sorted returns the time-ordered record slice, merging pending runs first
// if any out-of-order append left more than one.
func (s *Series) sorted() []record.Record {
	s.mu.RLock()
	if s.singleLocked() {
		var recs []record.Record
		if len(s.runs) == 1 {
			recs = s.runs[0]
			s.exposed.Store(true)
		}
		s.mu.RUnlock()
		return recs
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.materializeLocked()
	if recs != nil {
		s.exposed.Store(true)
	}
	return recs
}

// Len returns the number of records.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.tail)
	for _, run := range s.runs {
		n += len(run)
	}
	return n
}

// EncodedBytes returns the total encoded size of the series, accounted in
// O(1) per append via record.EncodedSize.
func (s *Series) EncodedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// All returns the full, time-ordered record slice. The returned slice is a
// read-only view; callers must not modify it.
func (s *Series) All() []record.Record {
	return s.sorted()
}

// Range returns the records with timestamps in [from, to) as a read-only,
// zero-copy view. An inverted window (from >= to) is empty, not a panic:
// the two binary searches land with lo > hi when from > to, so the bounds
// are clamped before slicing.
func (s *Series) Range(from, to time.Duration) []record.Record {
	recs := s.sorted()
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return recs[lo:hi]
}

// Kind returns all records of one kind, in time order, as a read-only view
// of the per-kind index (built on first use, cached until the next write).
func (s *Series) Kind(k record.Kind) []record.Record {
	s.mu.RLock()
	if s.singleLocked() {
		if kv, ok := s.kinds[k]; ok {
			s.mu.RUnlock()
			return kv
		}
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kindLocked(k)
}

// kindLocked returns the cached per-kind view, building it with one pass
// over the materialized series on a miss.
func (s *Series) kindLocked(k record.Kind) []record.Record {
	if kv, ok := s.kinds[k]; ok {
		return kv
	}
	var out []record.Record
	for _, r := range s.materializeLocked() {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	if s.kinds == nil {
		s.kinds = make(map[record.Kind][]record.Record)
	}
	s.kinds[k] = out
	return out
}

// RangeKind returns records of one kind within [from, to) as a read-only,
// zero-copy view: two binary searches on the per-kind index instead of a
// scan over every record. Like Range, an inverted window is clamped to an
// empty view.
func (s *Series) RangeKind(from, to time.Duration, k record.Kind) []record.Record {
	kv := s.Kind(k)
	lo := sort.Search(len(kv), func(i int) bool { return kv[i].Local >= from })
	hi := sort.Search(len(kv), func(i int) bool { return kv[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return kv[lo:hi]
}

// Iter returns a streaming cursor over the records in [from, to),
// optionally restricted to one kind (k == 0 iterates every kind) — the
// Series side of the View.Iter contract. The cursor wraps the zero-copy
// Range/RangeKind view, so building and stepping it allocates nothing
// beyond what those queries already cache.
func (s *Series) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	if k == 0 {
		return record.NewCursor(s.Range(from, to))
	}
	return record.NewCursor(s.RangeKind(from, to, k))
}

// timesBatch is the Times cursor's batch size: large enough to amortize
// the pull, small enough that the reused buffer stays cache-resident.
const timesBatch = 256

// Times returns the Local of every record in [from, to), in series order —
// the Series side of the View.Times contract. It gathers the timestamps of
// the zero-copy Range view into one reused buffer, batch by batch.
func (s *Series) Times(from, to time.Duration) record.TimeCursor {
	recs := s.Range(from, to)
	var buf []time.Duration
	return record.PullTimeCursor(func() []time.Duration {
		if len(recs) == 0 {
			return nil
		}
		n := min(len(recs), timesBatch)
		if cap(buf) < n {
			buf = make([]time.Duration, n)
		}
		buf = buf[:n]
		for i := range buf {
			buf[i] = recs[i].Local
		}
		recs = recs[n:]
		return buf
	})
}

// First returns the earliest record, if any.
func (s *Series) First() (record.Record, bool) {
	all := s.sorted()
	if len(all) == 0 {
		return record.Record{}, false
	}
	return all[0], true
}

// Last returns the latest record, if any.
func (s *Series) Last() (record.Record, bool) {
	all := s.sorted()
	if len(all) == 0 {
		return record.Record{}, false
	}
	return all[len(all)-1], true
}
