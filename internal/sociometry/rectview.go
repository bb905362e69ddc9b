package sociometry

import (
	"math"
	"time"

	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/timesync"
)

// rectifiedView adapts a raw-device-time read view onto reference time:
// every record comes out with Local rectified by the badge's correction, and
// window queries are answered by inverting the correction over the
// underlying local-time view. It is the pipeline's only rectification
// mechanism: stores and archives hold raw time, and every query reads
// through this wrapper. Its answers equal mapping every record through
// ToReference and stable-sorting the result (rectview_test.go).
type rectifiedView struct {
	v store.View
	c timesync.Correction
}

var _ store.View = (*rectifiedView)(nil)

// rectifyView wraps v so its records read in reference time; an identity
// correction returns v itself. A degenerate correction (1+Skew <= 0, under
// which ToReference reverses or collapses the time axis) cannot be
// window-inverted monotonically, so that case materializes a snapshot of
// the mapped records into an in-memory series, stably re-sorted; realistic
// clock skews are parts per million.
func rectifyView(v store.View, c timesync.Correction) store.View {
	if c.Offset == 0 && c.Skew == 0 {
		return v
	}
	if 1+c.Skew <= 0 {
		s := new(store.Series)
		for _, r := range v.All() {
			r.Local = c.ToReference(r.Local)
			s.Append(r)
		}
		return s
	}
	return &rectifiedView{v: v, c: c}
}

// mapRecs copies recs with rectified timestamps. ToReference is monotone
// nondecreasing (1+Skew > 0 here), so a time-ordered input stays ordered.
func (rv *rectifiedView) mapRecs(recs []record.Record) []record.Record {
	if len(recs) == 0 {
		return nil
	}
	out := make([]record.Record, len(recs))
	for i, r := range recs {
		r.Local = rv.c.ToReference(r.Local)
		out[i] = r
	}
	return out
}

// invertLower returns the smallest local timestamp whose rectified image
// reaches ref — the exact preimage boundary of a half-open reference-time
// window. ToReference's float rounding makes an algebraic inverse inexact,
// so this is a plain binary search over the timestamp domain (~62 probes,
// each one float divide); monotonicity makes it land exactly:
// local >= invertLower(ref) iff ToReference(local) >= ref.
func (rv *rectifiedView) invertLower(ref time.Duration) time.Duration {
	lo, hi := int64(math.MinInt64/2), int64(math.MaxInt64/2)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rv.c.ToReference(time.Duration(mid)) >= ref {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return time.Duration(lo)
}

func (rv *rectifiedView) All() []record.Record {
	return rv.mapRecs(rv.v.All())
}

func (rv *rectifiedView) Range(from, to time.Duration) []record.Record {
	return rv.mapRecs(rv.v.Range(rv.invertLower(from), rv.invertLower(to)))
}

func (rv *rectifiedView) Kind(k record.Kind) []record.Record {
	return rv.mapRecs(rv.v.Kind(k))
}

func (rv *rectifiedView) RangeKind(from, to time.Duration, k record.Kind) []record.Record {
	return rv.mapRecs(rv.v.RangeKind(rv.invertLower(from), rv.invertLower(to), k))
}

// rectifyBatch is the cursor batch size: large enough to amortize the pull
// indirection, small enough to stay cache-resident.
const rectifyBatch = 64

func (rv *rectifiedView) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	inner := rv.v.Iter(rv.invertLower(from), rv.invertLower(to), k)
	var src, buf []record.Record
	return record.PullCursor(func() []record.Record {
		// src is the inner batch being mapped (zero-copy for a resident
		// series); it stays valid until the next inner pull. The buffer
		// grows only to the batch sizes actually seen, so short windows
		// allocate little, and is reused between pulls — the documented
		// Cursor contract (records are read by value; NextBatch slices are
		// copied before the cursor advances).
		if len(src) == 0 {
			if src = inner.NextBatch(); src == nil {
				return nil
			}
		}
		n := min(len(src), rectifyBatch)
		if cap(buf) < n {
			buf = make([]record.Record, n)
		}
		buf = buf[:n]
		copy(buf, src)
		for i := range buf {
			buf[i].Local = rv.c.ToReference(buf[i].Local)
		}
		src = src[n:]
		return buf
	})
}

func (rv *rectifiedView) Len() int { return rv.v.Len() }

func (rv *rectifiedView) First() (record.Record, bool) {
	r, ok := rv.v.First()
	if ok {
		r.Local = rv.c.ToReference(r.Local)
	}
	return r, ok
}

func (rv *rectifiedView) Last() (record.Record, bool) {
	r, ok := rv.v.Last()
	if ok {
		r.Local = rv.c.ToReference(r.Local)
	}
	return r, ok
}
