// Package store is the offline data store of the sociometric pipeline: the
// per-badge, time-ordered record series the analyses query, and the dataset
// abstraction grouping all badges of a mission. It corresponds to the
// collected SD-card contents of the paper (150 GiB across 13 days) after
// ingestion.
//
// Each Series is an append log, like the card it stands for: records are
// kept in append order in chunks allocated once at full size, and the
// first read after a write joins them into one array, stable-sorted by
// timestamp only if some append arrived out of order. Kind/RangeKind
// queries answer from lazily built per-kind indexes, byte accounting is
// O(1) per append via record.EncodedSize, and Series.AppendBatch ingests a
// batch under one lock with one subscriber publish. A dataset reaches disk
// in one format, the per-badge .seg segment archive: SaveSegments and
// OpenSegments fan out across badge files with a bounded worker pool, and
// OpenSegments salvages damaged segments (see LoadReport) instead of
// failing the whole archive.
//
// Every series and .seg archive holds raw device time — what the
// badges wrote to their SD cards. Clock corrections are a value the analysis
// pipeline owns and applies through a read view; the store never rewrites a
// timestamp, so nothing here can be rectified twice.
//
// The store also serves the live path: datasets publish append
// notifications (Subscribe), one per Append or AppendBatch call carrying
// the whole batch — the hook incremental consumers use to fold in only
// what is new.
package store

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"icares/internal/record"
)

// BadgeID identifies a badge (and, via assignment, usually an astronaut).
type BadgeID uint16

// Dataset groups the series of all badges in one mission. Safe for
// concurrent use with the same reader/writer discipline as Series.
type Dataset struct {
	mu     sync.RWMutex
	series map[BadgeID]*Series
	// reserved holds Reserve hints for badges that have no series yet.
	reserved map[BadgeID]int

	// Append subscriptions (Subscribe). subCount mirrors len(subs) so the
	// per-append publish path costs one atomic load when nobody listens.
	subMu    sync.RWMutex
	subs     map[int]func(BadgeID, []record.Record)
	nextSub  int
	subCount atomic.Int32
}

// NewDataset creates an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{series: make(map[BadgeID]*Series)}
}

// Series returns the series of a badge, creating it if absent.
func (d *Dataset) Series(id BadgeID) *Series {
	d.mu.RLock()
	s, ok := d.series[id]
	d.mu.RUnlock()
	if ok {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.series[id]; ok {
		return s
	}
	s = &Series{owner: d, id: id, reserve: d.reserved[id]}
	delete(d.reserved, id)
	d.series[id] = s
	return s
}

// Reserve hints that the badge's series will hold about n records: its
// first chunk is allocated at n records' capacity when the first record
// arrives, so a feed of at most n records fills one array without
// regrowing and reads without a join.
// The hint creates no series — a badge reserved but never appended to is
// absent from Badges and View — and a series that already holds records
// ignores it. Any n reads the same as no hint; only the cost changes. A
// series read between writes must be reserved to its feed's length: once
// it spills past its first chunk, each read after a write copies all
// Len() records into one new array.
func (d *Dataset) Reserve(id BadgeID, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.series[id]; ok {
		s.mu.Lock()
		if s.n == 0 {
			s.reserve = n
		}
		s.mu.Unlock()
		return
	}
	if d.reserved == nil {
		d.reserved = make(map[BadgeID]int)
	}
	d.reserved[id] = n
}

// View returns the badge's read view, or ok == false when the dataset holds
// no series for it. Unlike Series it never creates one — it is the
// Viewer-contract read path shared with SegmentStore.
func (d *Dataset) View(id BadgeID) (View, bool) {
	d.mu.RLock()
	s, ok := d.series[id]
	d.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return s, true
}

// Subscribe registers fn to be called once per non-empty Append or
// AppendBatch on any of the dataset's series, with the badge it landed on
// and the appended records in append order. The callback runs
// synchronously on the appending goroutine and must be fast and must not
// append to or query the dataset (mark state and return; do the work
// elsewhere). recs is the appender's slice: the callback must neither
// modify it nor keep it past the call. The returned cancel function
// removes the subscription.
func (d *Dataset) Subscribe(fn func(id BadgeID, recs []record.Record)) (cancel func()) {
	d.subMu.Lock()
	if d.subs == nil {
		d.subs = make(map[int]func(BadgeID, []record.Record))
	}
	token := d.nextSub
	d.nextSub++
	d.subs[token] = fn
	d.subCount.Store(int32(len(d.subs)))
	d.subMu.Unlock()
	return func() {
		d.subMu.Lock()
		delete(d.subs, token)
		d.subCount.Store(int32(len(d.subs)))
		d.subMu.Unlock()
	}
}

// publish hands one appended batch to every subscriber.
func (d *Dataset) publish(id BadgeID, recs []record.Record) {
	if d.subCount.Load() == 0 {
		return
	}
	d.subMu.RLock()
	for _, fn := range d.subs {
		fn(id, recs)
	}
	d.subMu.RUnlock()
}

// Badges returns the badge IDs present, sorted.
func (d *Dataset) Badges() []BadgeID {
	d.mu.RLock()
	out := make([]BadgeID, 0, len(d.series))
	for id := range d.series {
		out = append(out, id)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalRecords returns the record count across all badges.
func (d *Dataset) TotalRecords() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int
	for _, s := range d.series {
		n += s.Len()
	}
	return n
}

// EncodedBytes returns the total encoded size across all badges — the
// figure corresponding to the paper's "150 GiB of data".
func (d *Dataset) EncodedBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, s := range d.series {
		n += s.EncodedBytes()
	}
	return n
}

// ErrNoData is returned when opening an archive directory that holds no
// usable segment data.
var ErrNoData = errors.New("store: no data")
