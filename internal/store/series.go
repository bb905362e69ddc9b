package store

import (
	"cmp"
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
)

// Series is the time-ordered record log of one badge, laid out as sorted
// runs: in-order appends extend the newest run directly; an out-of-order
// append opens a small unsorted tail that takes every append after it
// until it is sealed into a sorted run of its own, and reads merge the
// runs — never a full re-sort of the whole series. A badge's mic frames are
// stamped at the start of their window, so on a badge almost every append
// goes through a tail (see fullTail for how tails are sized). Per-kind sub-series are indexed lazily so Kind/RangeKind
// answer from a cached, time-ordered view instead of scanning every record.
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
			s.runs = append(s.runs, []record.Record{r})
			return
		case r.Local >= s.runs[n-1][len(s.runs[n-1])-1].Local:
			s.runs[n-1] = append(s.runs[n-1], r)
			return
		}
		s.tailSorted = true
	} else if r.Local < s.tail[len(s.tail)-1].Local {
		s.tailSorted = false
	}
	s.tail = append(s.tail, r)
	if len(s.tail) >= maxTail {
		s.sealTailLocked()
		s.fullTail = true
	}
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
		s.runs[best] = mergeTwo(s.runs[best], s.runs[best+1])
		s.runs = append(s.runs[:best+1], s.runs[best+2:]...)
	}
}

// materializeLocked collapses tail and runs into a single sorted run — the
// canonical time-ordered view reads return. Ties keep append order: older
// runs win, so the result equals a stable sort of the append sequence. The
// common two-run case (one big sorted run, one run of stragglers) merges
// into the big run's spare capacity when no view of it has escaped yet,
// avoiding a full-series allocation on the first post-ingest read.
func (s *Series) materializeLocked() []record.Record {
	s.sealTailLocked()
	switch len(s.runs) {
	case 0:
		return nil
	case 1:
	case 2:
		a, b := s.runs[0], s.runs[1]
		if !s.exposed.Load() && cap(a) >= len(a)+len(b) {
			s.runs = [][]record.Record{mergeInto(a, b)}
		} else {
			s.runs = [][]record.Record{mergeTwo(a, b)}
			s.exposed.Store(false)
		}
	default:
		s.runs = [][]record.Record{mergeRuns(s.runs)}
		s.exposed.Store(false)
	}
	return s.runs[0]
}

// mergeInto merges sorted run b into a's backing array in place (a must
// have the capacity; callers guarantee no view of a has escaped). It works
// back to front with the same galloping chunk copies as mergeTwo, and the
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

// mergeTwo merges two sorted runs; a is the older run and wins ties. It
// gallops: instead of comparing element by element, it binary-searches for
// the next crossover and bulk-copies the whole contiguous chunk, so the
// common shape — a huge sorted run plus a small run of stragglers — merges
// at memmove speed rather than one 72-byte record at a time.
func mergeTwo(a, b []record.Record) []record.Record {
	out := make([]record.Record, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Local < a[i].Local {
			// Everything in b strictly below a's head goes first.
			k := j + sort.Search(len(b)-j, func(n int) bool { return b[j+n].Local >= a[i].Local })
			out = append(out, b[j:k]...)
			j = k
		} else {
			// Everything in a at or below b's head goes first (ties keep
			// the older run's records ahead — append order).
			k := i + sort.Search(len(a)-i, func(n int) bool { return a[i+n].Local > b[j].Local })
			out = append(out, a[i:k]...)
			i = k
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeRuns folds the runs pairwise (adjacent pairs, so append-time order
// — and with it tie stability — is preserved) until one remains. k is
// bounded by maxRuns, so the fold depth is at most log2(maxRuns)+1.
func mergeRuns(runs [][]record.Record) []record.Record {
	for len(runs) > 1 {
		merged := make([][]record.Record, 0, (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 < len(runs) {
				merged = append(merged, mergeTwo(runs[i], runs[i+1]))
			} else {
				merged = append(merged, runs[i])
			}
		}
		runs = merged
	}
	return runs[0]
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
