package store

import (
	"reflect"
	"testing"
	"time"

	"icares/internal/record"
)

func TestSeriesSeqCountsAppends(t *testing.T) {
	s := &Series{}
	if s.Seq() != 0 {
		t.Fatalf("empty series seq = %d, want 0", s.Seq())
	}
	for i := 1; i <= 10; i++ {
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindAccel})
		if got := s.Seq(); got != uint64(i) {
			t.Fatalf("after %d appends seq = %d", i, got)
		}
	}
	// Out-of-order appends still advance the sequence.
	s.Append(record.Record{Local: time.Second / 2, Kind: record.KindAccel})
	if got := s.Seq(); got != 11 {
		t.Fatalf("seq after out-of-order append = %d, want 11", got)
	}
}

func TestDatasetSubscribeDeliversAppends(t *testing.T) {
	d := NewDataset()
	type ev struct {
		id  BadgeID
		at  time.Duration
		seq uint64
	}
	var got []ev
	cancel := d.Subscribe(func(id BadgeID, r record.Record, seq uint64) {
		got = append(got, ev{id, r.Local, seq})
	})
	d.Series(7).Append(record.Record{Local: time.Second, Kind: record.KindAccel})
	d.Series(9).Append(record.Record{Local: 2 * time.Second, Kind: record.KindIR})
	d.Series(7).Append(record.Record{Local: 3 * time.Second, Kind: record.KindAccel})
	// A batch is delivered record by record, each with its own seq.
	d.Series(9).AppendBatch([]record.Record{
		{Local: 5 * time.Second, Kind: record.KindIR},
		{Local: 4 * time.Second, Kind: record.KindIR},
	})
	want := []ev{{7, time.Second, 1}, {9, 2 * time.Second, 1}, {7, 3 * time.Second, 2},
		{9, 5 * time.Second, 2}, {9, 4 * time.Second, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	cancel()
	d.Series(7).Append(record.Record{Local: 4 * time.Second, Kind: record.KindAccel})
	d.Series(7).AppendBatch([]record.Record{{Local: 6 * time.Second, Kind: record.KindAccel}})
	if len(got) != len(want) {
		t.Fatalf("append after cancel still delivered: %v", got)
	}
}
