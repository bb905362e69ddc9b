package icares

import (
	"math"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/store"
)

// The acceptance path for the segment store: a full simulated mission saved
// as segments reopens out-of-core byte-identical, answers every view the
// in-memory store answers — including inverted windows — and lands at a
// compression ratio of at least 2x over the framed log encoding.
func TestMissionSegmentsRoundTrip(t *testing.T) {
	m := facadeMission(t)
	d := m.Result().Dataset
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}
	ss, rep, err := store.OpenSegments(dir)
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Fatalf("report not clean: %+v", rep)
	}
	if ss.TotalRecords() != d.TotalRecords() {
		t.Fatalf("TotalRecords = %d, want %d", ss.TotalRecords(), d.TotalRecords())
	}

	horizon := m.Horizon()
	for _, id := range d.Badges() {
		mem := store.View(d.Series(id))
		seg, ok := ss.View(id)
		if !ok {
			t.Fatalf("badge %d has no segment", id)
		}
		want, got := scanView(mem, math.MinInt64, math.MaxInt64, 0), scanView(seg, math.MinInt64, math.MaxInt64, 0)
		if len(want) != len(got) {
			t.Fatalf("badge %d: %d records out-of-core, want %d", id, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("badge %d record %d differs:\n mem %+v\n seg %+v", id, i, want[i], got[i])
			}
		}
		windows := [][2]time.Duration{
			{math.MinInt64, math.MaxInt64},
			{horizon / 4, horizon / 2},
			{horizon / 2, horizon / 4}, // inverted: empty, not a panic
			{0, horizon},
		}
		for _, w := range windows {
			for _, k := range []record.Kind{0, record.KindAccel, record.KindMic, record.KindBeacon, record.KindNeighbor, record.KindIR} {
				if lm, ls := len(scanView(mem, w[0], w[1], k)), len(scanView(seg, w[0], w[1], k)); lm != ls {
					t.Fatalf("badge %d Iter(%v, %v, %v): %d vs %d", id, w[0], w[1], k, ls, lm)
				}
			}
		}
	}

	encoded, onDisk := d.EncodedBytes(), ss.BytesOnDisk()
	ratio := float64(encoded) / float64(onDisk)
	t.Logf("framed %d B, segments %d B, ratio %.2fx", encoded, onDisk, ratio)
	if ratio < 2 {
		t.Errorf("compression ratio %.2fx < 2x", ratio)
	}
}

// scanView drains v.Iter(from, to, k) into a slice.
func scanView(v store.View, from, to time.Duration, k record.Kind) []record.Record {
	var out []record.Record
	for it := v.Iter(from, to, k); it.Next(); {
		out = append(out, it.Record())
	}
	return out
}
