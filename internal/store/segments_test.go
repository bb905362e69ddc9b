package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"icares/internal/record"
)

// fillDataset populates a dataset with a deterministic multi-badge,
// multi-kind series shaped like badge traffic: regular accel/mic ticks plus
// jittered beacon and neighbor sightings.
func fillDataset(t *testing.T, badges, seconds int) *Dataset {
	t.Helper()
	d := NewDataset()
	rng := rand.New(rand.NewSource(7))
	for b := 1; b <= badges; b++ {
		s := d.Series(BadgeID(b))
		for sec := 0; sec < seconds; sec++ {
			at := time.Duration(sec) * time.Second
			s.Append(record.NewAccel(at, int16(rng.Intn(2000)-1000), int16(rng.Intn(2000)-1000), int16(rng.Intn(2000)-1000)))
			s.Append(record.NewMic(at, sec%3 == 0, 40+float32(rng.Intn(30)), 0, 0.25))
			if sec%5 == 0 {
				s.Append(record.NewBeacon(at+time.Duration(rng.Intn(1e9)), uint16(rng.Intn(16)), -40-float32(rng.Intn(50))))
			}
			if sec%7 == 0 {
				s.Append(record.NewNeighbor(at+time.Duration(rng.Intn(1e9)), uint16(b%badges+1), -50))
			}
		}
	}
	return d
}

// sameViews asserts a segment reader answers every View query identically to
// the in-memory series it was saved from.
func sameViews(t *testing.T, id BadgeID, want, got View) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("badge %d: Len = %d, want %d", id, got.Len(), want.Len())
	}
	if !recordsEqual(scan(want, minDuration, maxDuration, 0), scan(got, minDuration, maxDuration, 0)) {
		t.Fatalf("badge %d: full scan mismatch", id)
	}
	for _, k := range []record.Kind{record.KindAccel, record.KindMic, record.KindBeacon, record.KindNeighbor, record.KindEnv} {
		if !recordsEqual(scan(want, minDuration, maxDuration, k), scan(got, minDuration, maxDuration, k)) {
			t.Fatalf("badge %d: kind %v scan mismatch", id, k)
		}
	}
	windows := [][2]time.Duration{
		{0, 10 * time.Second},
		{3 * time.Second, 27 * time.Second},
		{20 * time.Second, 20 * time.Second},
		{30 * time.Second, 10 * time.Second}, // inverted: must be empty, not a panic
		{-5 * time.Second, 2 * time.Second},
	}
	for _, w := range windows {
		if !recordsEqual(scan(want, w[0], w[1], 0), scan(got, w[0], w[1], 0)) {
			t.Fatalf("badge %d: window [%v, %v) mismatch", id, w[0], w[1])
		}
		if !recordsEqual(scan(want, w[0], w[1], record.KindMic), scan(got, w[0], w[1], record.KindMic)) {
			t.Fatalf("badge %d: mic window [%v, %v) mismatch", id, w[0], w[1])
		}
	}
	wf, wok := want.First()
	gf, gok := got.First()
	if wok != gok || wf != gf {
		t.Fatalf("badge %d: First = %v,%v want %v,%v", id, gf, gok, wf, wok)
	}
	wl, wok := want.Last()
	gl, gok := got.Last()
	if wok != gok || wl != gl {
		t.Fatalf("badge %d: Last = %v,%v want %v,%v", id, gl, gok, wl, wok)
	}
}

// scan drains v.Iter(from, to, k) into a slice.
func scan(v View, from, to time.Duration, k record.Kind) []record.Record {
	var out []record.Record
	for it := v.Iter(from, to, k); it.Next(); {
		out = append(out, it.Record())
	}
	return out
}

// mustView returns the store's view of a badge, failing the test on a miss.
func mustView(t *testing.T, ss *SegmentStore, id BadgeID) View {
	t.Helper()
	v, ok := ss.View(id)
	if !ok {
		t.Fatalf("badge %d missing", id)
	}
	return v
}

func recordsEqual(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSaveOpenSegmentsRoundTrip(t *testing.T) {
	d := fillDataset(t, 5, 60)
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatalf("SaveSegments: %v", err)
	}
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Fatalf("report not clean: %+v", rep)
	}
	if got, want := ss.Badges(), d.Badges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("badges = %v, want %v", got, want)
	}
	if ss.TotalRecords() != d.TotalRecords() {
		t.Fatalf("TotalRecords = %d, want %d", ss.TotalRecords(), d.TotalRecords())
	}
	for _, id := range d.Badges() {
		sameViews(t, id, d.Series(id), mustView(t, ss, id))
	}
	if _, ok := ss.View(99); ok {
		t.Error("View for absent badge should miss")
	}
	// The point of segments: they must be smaller than the framed encoding.
	if ss.BytesOnDisk() >= d.EncodedBytes() {
		t.Errorf("segments %d B not smaller than framed %d B", ss.BytesOnDisk(), d.EncodedBytes())
	}
}

// TestSegmentsSmallBlocksRoundTrip saves at 7 records a block. Badge 1
// stays under 64 blocks, so its reader caches it whole; badge 2 runs past
// 64, so its reader streams. Both must answer like the resident series.
func TestSegmentsSmallBlocksRoundTrip(t *testing.T) {
	d := fillDataset(t, 2, 40)
	long := d.Series(2)
	for sec := 40; long.Len() <= 64*7; sec++ {
		at := time.Duration(sec) * time.Second
		long.Append(record.NewAccel(at, int16(sec), -int16(sec), 1000))
		long.Append(record.NewMic(at, sec%3 == 0, 50, 0, 0.25))
	}
	if d.Series(1).Len() > 64*7 {
		t.Fatalf("badge 1 holds %d records, more than 64 blocks of 7", d.Series(1).Len())
	}
	dir := t.TempDir()
	if err := d.saveSegments(dir, 7); err != nil {
		t.Fatalf("saveSegments: %v", err)
	}
	ss, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer ss.Close()
	for _, id := range d.Badges() {
		sameViews(t, id, d.Series(id), mustView(t, ss, id))
	}
}

func TestOpenSegmentsSalvagesDamage(t *testing.T) {
	d := fillDataset(t, 2, 30)
	dir := t.TempDir()
	if err := d.saveSegments(dir, 8); err != nil {
		t.Fatalf("saveSegments: %v", err)
	}
	// Truncate badge 1's segment mid-block-stream: the index and the cut
	// block are gone, the reader must salvage the complete blocks by
	// forward scan and the report must say so.
	path := filepath.Join(dir, segFileName(1))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer ss.Close()
	if rep.Clean() {
		t.Fatal("report should not be clean after damage")
	}
	st := rep.Badges[1]
	if !st.Truncated {
		t.Errorf("badge 1 not marked truncated: %+v", st)
	}
	if n := mustView(t, ss, 1).Len(); st.Records == 0 || st.Records != n {
		t.Errorf("badge 1 records = %d (reader %d)", st.Records, n)
	}
	// Badge 2 is untouched and still byte-identical.
	sameViews(t, 2, d.Series(2), mustView(t, ss, 2))
}

func TestOpenSegmentsDuplicateBadge(t *testing.T) {
	d := fillDataset(t, 1, 10)
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, segFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Same badge ID under a later file name: first file wins, later one is
	// reported failed.
	if err := os.WriteFile(filepath.Join(dir, "badge-001b.seg"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("OpenSegments: %v", err)
	}
	defer ss.Close()
	if len(rep.Failed) != 1 {
		t.Fatalf("Failed = %v, want one duplicate entry", rep.Failed)
	}
	if _, ok := rep.Failed["badge-001b.seg"]; !ok {
		t.Fatalf("Failed = %v, want badge-001b.seg", rep.Failed)
	}
	if ss.TotalRecords() != d.TotalRecords() {
		t.Errorf("TotalRecords = %d, want %d", ss.TotalRecords(), d.TotalRecords())
	}
}

func TestOpenSegmentsNoData(t *testing.T) {
	if _, _, err := OpenSegments(t.TempDir()); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, _, err := OpenSegments(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir should fail")
	}
}
