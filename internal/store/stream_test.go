package store

import (
	"reflect"
	"testing"
	"time"

	"icares/internal/record"
)

func TestDatasetSubscribeDeliversAppends(t *testing.T) {
	d := NewDataset()
	type ev struct {
		id  BadgeID
		ats []time.Duration
	}
	var got []ev
	cancel := d.Subscribe(func(id BadgeID, recs []record.Record) {
		e := ev{id: id}
		for _, r := range recs {
			e.ats = append(e.ats, r.Local)
		}
		got = append(got, e)
	})
	d.Series(7).Append(record.Record{Local: time.Second, Kind: record.KindAccel})
	d.Series(9).Append(record.Record{Local: 2 * time.Second, Kind: record.KindIR})
	d.Series(7).Append(record.Record{Local: 3 * time.Second, Kind: record.KindAccel})
	// A batch is delivered once, its records in append order (not time
	// order); an empty batch is not delivered at all.
	d.Series(9).AppendBatch([]record.Record{
		{Local: 5 * time.Second, Kind: record.KindIR},
		{Local: 4 * time.Second, Kind: record.KindIR},
	})
	d.Series(9).AppendBatch(nil)
	want := []ev{{7, []time.Duration{time.Second}}, {9, []time.Duration{2 * time.Second}},
		{7, []time.Duration{3 * time.Second}}, {9, []time.Duration{5 * time.Second, 4 * time.Second}}}
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
