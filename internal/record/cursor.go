package record

import "time"

// Cursor is the streaming read primitive shared by every record source: a
// resident slice (store.Series views), an out-of-core block iterator
// (segment.Reader), or any batch-producing pull function. Consumers step it
// with Next/Record and never learn which backend feeds them — the property
// the analysis pipeline's out-of-core mode rests on.
//
// A Cursor is a value; iterating a cached in-memory batch allocates
// nothing. It is single-use and not safe for concurrent use.
//
//	it := v.Iter(from, to, record.KindBeacon)
//	for it.Next() {
//		r := it.Record()
//		...
//	}
type Cursor struct {
	cur  []Record
	i    int
	pull func() []Record
}

// NewCursor returns a cursor over a record slice (zero further allocation).
func NewCursor(recs []Record) Cursor {
	return Cursor{cur: recs, i: -1}
}

// PullCursor returns a cursor fed by pull, which returns the next non-empty
// batch of records, or nil when the stream is done. pull is never called
// again after returning nil. A backend may reuse a batch's backing array
// across pulls: Record returns records by value, so stepping is always
// safe, but callers holding a NextBatch slice must copy it before the
// cursor advances past the batch.
func PullCursor(pull func() []Record) Cursor {
	return Cursor{i: -1, pull: pull}
}

// Next advances to the next record, pulling the next batch when the current
// one is exhausted. It returns false when the stream is done.
func (c *Cursor) Next() bool {
	for {
		if c.i+1 < len(c.cur) {
			c.i++
			return true
		}
		if c.pull == nil {
			return false
		}
		b := c.pull()
		if b == nil {
			c.pull = nil
			return false
		}
		c.cur, c.i = b, -1
	}
}

// Record returns the record Next advanced to.
func (c *Cursor) Record() Record { return c.cur[c.i] }

// NextBatch returns the remaining records of the current batch (pulling a
// fresh batch if the current one is consumed) and marks them consumed, or
// nil when the stream is done. It is the zero-copy primitive for chaining
// cursors and bulk appends; see PullCursor for the aliasing caveat.
func (c *Cursor) NextBatch() []Record {
	for {
		if c.i+1 < len(c.cur) {
			b := c.cur[c.i+1:]
			c.i = len(c.cur) - 1
			return b
		}
		if c.pull == nil {
			return nil
		}
		b := c.pull()
		if b == nil {
			c.pull = nil
			return nil
		}
		c.cur, c.i = b, -1
	}
}

// TimeCursor is the timestamp-only projection of a Cursor: the Local of
// each record in [from, to), in series order, for scans that read nothing
// else (coverage and presence probes). It is batch-only — NextBatch
// returns the next non-empty batch, or nil when the stream is done — and
// carries the PullCursor aliasing caveat: a backend may reuse or share a
// batch's backing array, so callers must neither write into a batch nor
// hold it past the next NextBatch. The zero TimeCursor is an empty stream.
// A TimeCursor is single-use and not safe for concurrent use.
type TimeCursor struct {
	pull func() []time.Duration
}

// PullTimeCursor returns a cursor fed by pull, which returns the next
// non-empty batch of timestamps, or nil when the stream is done. pull is
// never called again after returning nil.
func PullTimeCursor(pull func() []time.Duration) TimeCursor {
	return TimeCursor{pull: pull}
}

// NextBatch returns the next batch of timestamps, or nil when the stream
// is done.
func (c *TimeCursor) NextBatch() []time.Duration {
	if c.pull == nil {
		return nil
	}
	b := c.pull()
	if b == nil {
		c.pull = nil
	}
	return b
}
