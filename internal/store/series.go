package store

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"icares/internal/record"
)

// chunkMin is the capacity of a series' first chunk when no Reserve hint
// sized it, and the least capacity of every later chunk.
const chunkMin = 256

// Series is the record log of one badge, held the way a badge writes its
// SD card: in append order. Records go into chunks, each allocated once at
// its full capacity — the first at the Dataset.Reserve hint (else
// chunkMin records), each later one at max(chunkMin, Len()/8) — so an
// append never copies what is already stored. An append that lands before
// the record appended just ahead of it marks the series disordered.
//
// The first read after a write joins the chunks into one array of exactly
// Len() records (a lone chunk in time order is used as is) and, only if
// the series is disordered, stable-sorts it by Local — in linear time
// while every late record is only a few places behind (sortNearlySorted).
// Reads therefore return the stable sort of the append sequence: of equal
// timestamps, the earlier append comes first. A badge's mic frames are
// stamped at the start of their window, so a badge's series ends
// disordered and its first read sorts once; a live feed appended in order
// never sorts. The joined array is exactly full, so the next append opens
// a new chunk and the read after it copies all Len() records again: a
// series read between writes should be reserved (Dataset.Reserve) to stay
// one chunk. Per-kind sub-series are indexed lazily so Kind/RangeKind
// answer from a cached, time-ordered view instead of scanning every
// record.
//
// Concurrency: any number of readers (All, Range, Kind, RangeKind, First,
// Last, Len) may run concurrently, and Append and AppendBatch may
// interleave with them — a read never writes an array a returned view
// aliases, so previously returned views stay valid snapshots. AppendBatch
// applies its whole batch under one lock, so a reader sees all of a batch
// or none of it. Stored timestamps are never rewritten: a series holds raw
// device time, and clock correction is applied by the reader (the analysis
// pipeline's rectified view).
type Series struct {
	mu sync.RWMutex

	// owner and id, set by Dataset.Series, name the dataset whose
	// subscribers see this series' appends and the badge they are published
	// under. Publishing runs outside the series lock, once per Append or
	// AppendBatch call.
	owner *Dataset
	id    BadgeID

	// chunks hold the records in append order; every chunk but the last is
	// full, and none is empty. After a read they are one chunk in time
	// order. n is their total length.
	chunks [][]record.Record
	n      int
	// disordered reports that the chunks are not in time order: some
	// append since the last read landed before the record ahead of it.
	disordered bool

	// reserve is the capacity the first chunk is allocated at
	// (Dataset.Reserve); it is spent when that chunk is created.
	reserve int

	// kinds caches per-kind, time-ordered sub-views of the read form,
	// built lazily per requested kind and dropped on any write.
	kinds map[record.Kind][]record.Record

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
// one Append per record: the same chunks and sizes. It takes the series
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
	if k := len(s.chunks); k > 0 {
		last := s.chunks[k-1]
		s.disordered = s.disordered || r.Local < last[len(last)-1].Local
		if len(last) == cap(last) {
			s.chunks = append(s.chunks, make([]record.Record, 0, max(chunkMin, s.n/8)))
		}
	} else {
		size := chunkMin
		if s.reserve > 0 {
			size = s.reserve
		}
		s.chunks = append(s.chunks, make([]record.Record, 0, size))
		s.reserve = 0
	}
	k := len(s.chunks) - 1
	s.chunks[k] = append(s.chunks[k], r)
	s.n++
}

// readLocked brings the series to its read form — one chunk holding the
// stable sort of the append sequence — and returns it. A lone chunk in
// time order is used as is. Otherwise the chunks are copied into one fresh
// array of exactly Len() records, which is stable-sorted if the series is
// disordered and becomes the only chunk; the chunks it replaces are
// released. A read therefore never writes an array an earlier view
// aliases.
func (s *Series) readLocked() []record.Record {
	if s.readyLocked() {
		if len(s.chunks) == 0 {
			return nil
		}
		return s.chunks[0]
	}
	all := make([]record.Record, 0, s.n)
	for _, c := range s.chunks {
		all = append(all, c...)
	}
	if s.disordered {
		sortNearlySorted(all)
		s.disordered = false
	}
	clear(s.chunks[1:])
	s.chunks = append(s.chunks[:0], all)
	return all
}

// maxShift is the furthest sortNearlySorted moves one record back before
// it hands the rest of the work to a general stable sort. A badge's late
// records are its mic frames, which land a handful of records behind the
// accel samples already written (at most 7 in a simulated mission).
const maxShift = 32

// sortNearlySorted stable-sorts recs by Local. It insertion-sorts while no
// record has to move more than maxShift places back, which is linear on a
// badge's append order, and falls back to slices.SortStableFunc the first
// time one does, so reversed input stays O(n log n). Both sorts keep equal
// timestamps in their current order and the insertion pass keeps them in
// their original order, so the result is the stable sort of the input
// whichever path finishes it.
func sortNearlySorted(recs []record.Record) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		if r.Local >= recs[i-1].Local {
			continue
		}
		j := i - 1
		for j > 0 && recs[j-1].Local > r.Local {
			if i-j == maxShift {
				slices.SortStableFunc(recs, func(a, b record.Record) int { return cmp.Compare(a.Local, b.Local) })
				return
			}
			j--
		}
		copy(recs[j+1:i+1], recs[j:i])
		recs[j] = r
	}
}

// readyLocked reports whether the series is already in its read form — the
// state in which reads are lock-upgrade-free.
func (s *Series) readyLocked() bool {
	return len(s.chunks) <= 1 && !s.disordered
}

// sorted returns the time-ordered record slice, joining and sorting the
// chunks first if a write left them out of read form.
func (s *Series) sorted() []record.Record {
	s.mu.RLock()
	if s.readyLocked() {
		recs := s.readLocked()
		s.mu.RUnlock()
		return recs
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked()
}

// Len returns the number of records.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
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
	if s.readyLocked() {
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
// over the read form on a miss.
func (s *Series) kindLocked(k record.Kind) []record.Record {
	if kv, ok := s.kinds[k]; ok {
		return kv
	}
	var out []record.Record
	for _, r := range s.readLocked() {
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
