package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icares/internal/record"
)

// saveTwoBadges writes a clean two-badge dataset and returns the directory
// and the per-badge record count.
func saveTwoBadges(t *testing.T) (string, int) {
	t.Helper()
	dir := t.TempDir()
	d := NewDataset()
	const n = 40
	for id := BadgeID(1); id <= 2; id++ {
		s := d.Series(id)
		for i := 0; i < n; i++ {
			s.Append(record.Record{
				Local:  time.Duration(i) * time.Second,
				Kind:   record.KindBeacon,
				PeerID: uint16(id),
				RSSI:   -60,
			})
		}
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, n
}

// chop removes the last n bytes of a file.
func chop(t *testing.T, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSalvagesTruncatedTail(t *testing.T) {
	// The paper's SD-pull-mid-write case: badge 2's log loses part of its
	// last frame. The whole dataset must still load, keeping badge 2's
	// records up to the truncation point and reporting the badge.
	dir, n := saveTwoBadges(t)
	chop(t, filepath.Join(dir, logFileName(2)), 3)

	d, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Series(1).Len(); got != n {
		t.Errorf("badge 1 = %d records, want %d", got, n)
	}
	if got := d.Series(2).Len(); got != n-1 {
		t.Errorf("badge 2 = %d records, want %d salvaged", got, n-1)
	}
	if !rep.Badges[2].Truncated {
		t.Error("badge 2 not reported truncated")
	}
	if rep.Badges[1].Truncated || rep.Badges[1].Skipped != 0 {
		t.Errorf("badge 1 status polluted: %+v", rep.Badges[1])
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
	if rep.Badges[2].Records != n-1 {
		t.Errorf("reported records = %d", rep.Badges[2].Records)
	}
}

func TestLoadReportsCorruptMidLogFrame(t *testing.T) {
	dir, n := saveTwoBadges(t)
	path := filepath.Join(dir, logFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the third frame; the reader resyncs past
	// it, so this is a skipped frame, not a truncation.
	frame, err := record.EncodedSize(record.Record{
		Local: time.Second, Kind: record.KindBeacon, PeerID: 1, RSSI: -60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sz0, err := record.EncodedSize(record.Record{Kind: record.KindBeacon, PeerID: 1, RSSI: -60})
	if err != nil {
		t.Fatal(err)
	}
	raw[7+sz0+2*frame+4] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Series(1).Len(); got != n-1 {
		t.Errorf("badge 1 = %d records, want %d", got, n-1)
	}
	st := rep.Badges[1]
	if st.Skipped != 1 || st.Truncated {
		t.Errorf("badge 1 status = %+v, want 1 skipped, not truncated", st)
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
}

func TestLoadSkipsUnreadableFile(t *testing.T) {
	dir, n := saveTwoBadges(t)
	// A file that died before its header was flushed.
	if err := os.WriteFile(filepath.Join(dir, "badge-099.icr"), []byte("IC"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Badges()); got != 2 {
		t.Errorf("badges = %d, want 2", got)
	}
	if d.TotalRecords() != 2*n {
		t.Errorf("records = %d", d.TotalRecords())
	}
	if _, ok := rep.Failed["badge-099.icr"]; !ok {
		t.Error("unreadable file missing from report")
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
	// The plain Load wrapper still succeeds on the salvageable dataset.
	if _, err := Load(dir); err != nil {
		t.Errorf("Load: %v", err)
	}
}

func TestLoadAllFilesUnreadable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "badge-001.icr"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := LoadWithReport(dir)
	if !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if len(rep.Failed) != 1 {
		t.Errorf("failed files = %d", len(rep.Failed))
	}
}

func TestLoadCleanReport(t *testing.T) {
	dir, _ := saveTwoBadges(t)
	_, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean dataset reported dirty: %+v", rep)
	}
	if rep.Badges[1].File != logFileName(1) {
		t.Errorf("file name = %q", rep.Badges[1].File)
	}
}

func TestLoadManyBadgesParallel(t *testing.T) {
	// More badges than pool workers: exercise the fan-out path end to end.
	dir := t.TempDir()
	d := NewDataset()
	const badges, per = 30, 200
	for id := BadgeID(1); id <= badges; id++ {
		s := d.Series(id)
		for i := 0; i < per; i++ {
			s.Append(record.Record{
				Local: time.Duration(i) * time.Second,
				Kind:  record.KindEnv,
				TempC: 21,
			})
		}
	}
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Error("parallel load not clean")
	}
	if got.TotalRecords() != badges*per {
		t.Errorf("records = %d, want %d", got.TotalRecords(), badges*per)
	}
	for _, id := range got.Badges() {
		want := d.Series(id).All()
		have := got.Series(id).All()
		if len(want) != len(have) {
			t.Fatalf("badge %d: %d vs %d", id, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("badge %d record %d differs", id, i)
			}
		}
	}
}

// A failed save must not destroy the previous good file: Save writes to a
// temp file and renames only on success, so an error mid-write (here, a
// record no codec exists for, standing in for a crash or full disk) leaves
// the old bytes untouched and loadable.
func TestSaveFailureKeepsOldFile(t *testing.T) {
	dir, n := saveTwoBadges(t)

	bad := NewDataset()
	s := bad.Series(1)
	for i := 0; i < 10; i++ {
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindBeacon})
	}
	s.Append(record.Record{Local: 11 * time.Second, Kind: record.Kind(200)})
	if err := bad.Save(dir); err == nil {
		t.Fatal("Save of unencodable record should fail")
	}

	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".icr" {
			t.Errorf("leftover temp file %q", e.Name())
		}
	}

	// The original data survives in full.
	d, rep, err := LoadWithReport(dir)
	if err != nil {
		t.Fatalf("load after failed save: %v", err)
	}
	if !rep.Clean() {
		t.Errorf("report not clean after failed save: %+v", rep)
	}
	if got := d.Series(1).Len(); got != n {
		t.Errorf("badge 1 records = %d, want %d", got, n)
	}
}

// SaveSegments shares the same atomic write path; a mid-write failure must
// leave a previous segment intact.
func TestSaveSegmentsFailureKeepsOldFile(t *testing.T) {
	dir, n := saveTwoBadgesSegments(t)

	bad := NewDataset()
	s := bad.Series(1)
	s.Append(record.Record{Local: time.Second, Kind: record.Kind(200)})
	if err := bad.SaveSegments(dir); err == nil {
		t.Fatal("SaveSegments of unencodable record should fail")
	}

	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("open after failed save: %v", err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Errorf("report not clean after failed save: %+v", rep)
	}
	if got := mustView(t, ss, 1).Len(); got != n {
		t.Errorf("badge 1 records = %d, want %d", got, n)
	}
}

// saveTwoBadgesSegments mirrors saveTwoBadges for the segment form.
func saveTwoBadgesSegments(t *testing.T) (string, int) {
	t.Helper()
	dir := t.TempDir()
	d := NewDataset()
	const n = 40
	for id := BadgeID(1); id <= 2; id++ {
		s := d.Series(id)
		for i := 0; i < n; i++ {
			s.Append(record.Record{
				Local:  time.Duration(i) * time.Second,
				Kind:   record.KindBeacon,
				PeerID: uint16(id),
				RSSI:   -60,
			})
		}
	}
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	return dir, n
}
