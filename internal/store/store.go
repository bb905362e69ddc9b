// Package store is the offline data store of the sociometric pipeline: the
// per-badge, time-ordered record series the analyses query, and the dataset
// abstraction grouping all badges of a mission. It corresponds to the
// collected SD-card contents of the paper (150 GiB across 13 days) after
// ingestion.
//
// The layout is built for that volume: each Series holds sorted runs that
// are merged incrementally (never a full re-sort), Kind/RangeKind queries
// answer from lazily built per-kind indexes, byte accounting is O(1) per
// append via record.EncodedSize, Series.AppendBatch ingests a batch under
// one lock with one subscriber publish. A dataset reaches disk in one
// format, the per-badge .seg segment archive: SaveSegments and OpenSegments
// fan out across badge files with a bounded worker pool, and OpenSegments
// salvages damaged segments (see LoadReport) instead of failing the whole
// archive.
//
// Every series and .seg archive holds raw device time — what the
// badges wrote to their SD cards. Clock corrections are a value the analysis
// pipeline owns and applies through a read view; the store never rewrites a
// timestamp, so nothing here can be rectified twice.
//
// The store also serves the live path: every series carries a monotone
// append sequence number (Series.Seq), and datasets publish append
// notifications (Subscribe), one per record whether it came through Append
// or AppendBatch — the hooks incremental consumers use to fold in only what
// is new.
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

	// Append subscriptions (Subscribe). subCount mirrors len(subs) so the
	// per-append publish path costs one atomic load when nobody listens.
	subMu    sync.RWMutex
	subs     map[int]func(BadgeID, record.Record, uint64)
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
	s = &Series{owner: d, id: id}
	d.series[id] = s
	return s
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

// Subscribe registers fn to be called for every record appended to any of
// the dataset's series, with the badge it landed on and the series' append
// sequence number after the append. The callback runs synchronously on the
// appending goroutine and must be fast and must not append to or query the
// dataset (mark state and return; do the work elsewhere). The returned
// cancel function removes the subscription.
func (d *Dataset) Subscribe(fn func(id BadgeID, r record.Record, seq uint64)) (cancel func()) {
	d.subMu.Lock()
	if d.subs == nil {
		d.subs = make(map[int]func(BadgeID, record.Record, uint64))
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

// publish fans a batch of appends out to the subscribers, record by record;
// recs[i] carries sequence number first+i.
func (d *Dataset) publish(id BadgeID, recs []record.Record, first uint64) {
	if d.subCount.Load() == 0 {
		return
	}
	d.subMu.RLock()
	for i, r := range recs {
		for _, fn := range d.subs {
			fn(id, r, first+uint64(i))
		}
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
