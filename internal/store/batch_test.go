package store

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// delivery is one append to one badge.
type delivery struct {
	id BadgeID
	r  record.Record
}

// batchDelivery is one subscriber callback: a badge and a copy of the
// records it was handed.
type batchDelivery struct {
	id   BadgeID
	recs []record.Record
}

// recorder subscribes to d and returns the deliveries seen so far. It
// copies each batch, since a subscriber must not keep the slice.
func recorder(d *Dataset) *[]batchDelivery {
	var got []batchDelivery
	d.Subscribe(func(id BadgeID, recs []record.Record) {
		got = append(got, batchDelivery{id, append([]record.Record(nil), recs...)})
	})
	return &got
}

// batchSequence builds a random append sequence for two badges: stretches
// of the badge pattern (accel in order, a mic frame every 15 s stamped 15 s
// back), bursts of stragglers with coarse, tied timestamps, and now and
// then a record of a kind the encoder cannot size.
func batchSequence(rng *stats.RNG) []delivery {
	var out []delivery
	add := func(id BadgeID, r record.Record) {
		r.PeerID = uint16(len(out)) // append order marker
		out = append(out, delivery{id: id, r: r})
	}
	sec := [2]int{}
	for n := rng.Intn(48 * chunkMin); len(out) < n; {
		id := BadgeID(1 + rng.Intn(2))
		switch {
		case rng.Bool(0.8):
			for k := rng.Intn(200); k > 0; k-- {
				sec[id-1]++
				now := time.Duration(sec[id-1]) * time.Second
				add(id, record.Record{Local: now, Kind: record.KindAccel})
				if sec[id-1]%15 == 0 {
					add(id, record.Record{Local: now - 15*time.Second, Kind: record.KindMic})
				}
			}
		case rng.Bool(0.9):
			for k := rng.Intn(50); k > 0; k-- {
				at := time.Duration(rng.Intn(sec[id-1]/4+1)) * 4 * time.Second
				add(id, record.Record{Local: at, Kind: record.KindNeighbor})
			}
		default:
			add(id, record.Record{Local: time.Duration(sec[id-1]) * time.Second, Kind: record.Kind(250)})
		}
	}
	return out
}

// Property: splitting any append sequence into random batches (empty ones
// included, many spanning several chunks) and applying them with
// AppendBatch leaves every series exactly as one Append per record does —
// the same chunks and disorder flag, All, Kind and EncodedBytes. A
// subscriber sees each non-empty AppendBatch exactly once, with its
// records in order, and each Append as a batch of one, so both sides
// deliver the same records in the same order. Reads between batches join
// and sort on both sides alike. With reuse, every batch is built in one
// buffer that is overwritten after each AppendBatch: AppendBatch must not
// keep recs.
func TestQuickAppendBatchMatchesAppend(t *testing.T) {
	f := func(seed uint64, reuse bool) bool {
		rng := stats.NewRNG(seed)
		seq := batchSequence(rng)
		one, many := NewDataset(), NewDataset()
		gotOne, gotMany := recorder(one), recorder(many)
		var sent []batchDelivery // the non-empty batches, in call order
		var buf []record.Record  // the reused batch buffer

		for i := 0; i < len(seq); {
			// A batch is a run of consecutive appends to one badge.
			id := seq[i].id
			n := 0
			if !rng.Bool(0.05) {
				n = 1 + rng.Intn(24*chunkMin)
			}
			var batch []record.Record
			if reuse {
				batch = buf[:0]
			}
			for ; i < len(seq) && len(batch) < n && seq[i].id == id; i++ {
				one.Series(id).Append(seq[i].r)
				batch = append(batch, seq[i].r)
			}
			many.Series(id).AppendBatch(batch)
			if len(batch) > 0 {
				sent = append(sent, batchDelivery{id, slices.Clone(batch)})
			}
			if reuse {
				buf = batch[:cap(batch)]
				for j := range buf {
					buf[j] = record.Record{Local: -1, Kind: record.KindWear}
				}
			}
			if rng.Bool(0.1) {
				_, _ = one.Series(id).All(), many.Series(id).All()
			}
		}

		if !reflect.DeepEqual(*gotMany, sent) {
			t.Logf("seed %d: AppendBatch deliveries are not the batches, once each and in order", seed)
			return false
		}
		if len(*gotOne) != len(seq) || !reflect.DeepEqual(flatten(*gotOne), flatten(*gotMany)) {
			t.Logf("seed %d: per-record and batched deliveries carry different records", seed)
			return false
		}
		for _, id := range []BadgeID{1, 2} {
			a, b := one.Series(id), many.Series(id)
			if !sameLayout(a, b) {
				t.Logf("seed %d badge %d: chunk layout differs", seed, id)
				return false
			}
			if a.EncodedBytes() != b.EncodedBytes() || a.Len() != b.Len() {
				t.Logf("seed %d badge %d: bytes/len differ", seed, id)
				return false
			}
			if !reflect.DeepEqual(a.All(), b.All()) {
				t.Logf("seed %d badge %d: All differs", seed, id)
				return false
			}
			for _, k := range []record.Kind{record.KindAccel, record.KindMic, record.KindNeighbor, record.Kind(250)} {
				if !reflect.DeepEqual(a.Kind(k), b.Kind(k)) {
					t.Logf("seed %d badge %d: Kind(%v) differs", seed, id, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// flatten lists the records of a delivery sequence one by one.
func flatten(ds []batchDelivery) []delivery {
	var out []delivery
	for _, d := range ds {
		for _, r := range d.recs {
			out = append(out, delivery{d.id, r})
		}
	}
	return out
}

// sameLayout reports whether two series hold the same records in chunks of
// the same capacities, and the same disorder flag.
func sameLayout(a, b *Series) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(a.chunks) != len(b.chunks) || a.disordered != b.disordered {
		return false
	}
	for i := range a.chunks {
		if cap(a.chunks[i]) != cap(b.chunks[i]) || !slices.Equal(a.chunks[i], b.chunks[i]) {
			return false
		}
	}
	return true
}

// An empty batch is a no-op: no record, no delivery.
func TestAppendBatchEmpty(t *testing.T) {
	d := NewDataset()
	calls := 0
	d.Subscribe(func(BadgeID, []record.Record) { calls++ })
	s := d.Series(4)
	s.AppendBatch(nil)
	s.AppendBatch([]record.Record{})
	if s.Len() != 0 || calls != 0 {
		t.Fatalf("empty batches: len %d, %d deliveries", s.Len(), calls)
	}
}
