package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icares/internal/record"
)

// twoBadgesBlock is the records-per-block size saveTwoBadges archives with,
// small enough that a 40-record badge spans several blocks.
const twoBadgesBlock = 8

// saveTwoBadges writes a clean two-badge archive and returns the directory,
// the saved dataset and the per-badge record count.
func saveTwoBadges(t *testing.T) (string, *Dataset, int) {
	t.Helper()
	dir := t.TempDir()
	d := NewDataset()
	const n = 40
	for id := BadgeID(1); id <= 2; id++ {
		s := d.Series(id)
		for i := 0; i < n; i++ {
			s.Append(record.NewBeacon(time.Duration(i)*time.Second, uint16(id), -60))
		}
	}
	if err := d.saveSegments(dir, twoBadgesBlock); err != nil {
		t.Fatal(err)
	}
	return dir, d, n
}

// rewrite replaces a file's bytes with mut applied to them.
func rewrite(t *testing.T, path string, mut func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mut(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSalvagesTruncatedTail(t *testing.T) {
	// The paper's SD-pull-mid-write case: badge 2's segment is cut mid-block.
	// The whole archive must still open, keeping badge 2's blocks up to the
	// cut as an exact prefix of what was saved and reporting the badge.
	dir, d, n := saveTwoBadges(t)
	rewrite(t, filepath.Join(dir, segFileName(2)), func(raw []byte) []byte { return raw[:len(raw)/2] })

	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	st := rep.Badges[2]
	if !st.Truncated || st.Skipped != 0 {
		t.Errorf("badge 2 status = %+v, want truncated, nothing skipped", st)
	}
	if st.Records == 0 || st.Records >= n || st.Records%twoBadgesBlock != 0 {
		t.Fatalf("badge 2 kept %d records, want whole blocks short of %d", st.Records, n)
	}
	want := d.Series(2).All()[:st.Records]
	if !recordsEqual(scan(mustView(t, ss, 2), minDuration, maxDuration, 0), want) {
		t.Error("badge 2 salvage is not a prefix of the saved series")
	}
	if st1 := rep.Badges[1]; st1.Truncated || st1.Skipped != 0 || st1.Records != n {
		t.Errorf("badge 1 status polluted: %+v", st1)
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
}

func TestLoadReportsCorruptMidLogFrame(t *testing.T) {
	// Bit rot in one block of a segment whose index is lost too: the salvage
	// scan resyncs past the bad block, so this is one skipped block, not a
	// truncation, and every other block survives.
	dir, _, n := saveTwoBadges(t)
	rewrite(t, filepath.Join(dir, segFileName(1)), func(raw []byte) []byte {
		raw = raw[:len(raw)-1] // tail chopped: the index is unlocatable
		raw[len(raw)/2] ^= 0x40
		return raw
	})

	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	st := rep.Badges[1]
	if st.Skipped != 1 || st.Truncated {
		t.Errorf("badge 1 status = %+v, want 1 skipped, not truncated", st)
	}
	if got := mustView(t, ss, 1).Len(); got != n-twoBadgesBlock || st.Records != got {
		t.Errorf("badge 1 = %d records (reported %d), want %d", got, st.Records, n-twoBadgesBlock)
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
}

func TestLoadSkipsUnreadableFile(t *testing.T) {
	dir, _, n := saveTwoBadges(t)
	// A file that died before its header was flushed.
	if err := os.WriteFile(filepath.Join(dir, "badge-099.seg"), []byte("IC"), 0o644); err != nil {
		t.Fatal(err)
	}
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if got := len(ss.Badges()); got != 2 {
		t.Errorf("badges = %d, want 2", got)
	}
	if ss.TotalRecords() != 2*n {
		t.Errorf("records = %d", ss.TotalRecords())
	}
	if _, ok := rep.Failed["badge-099.seg"]; !ok {
		t.Error("unreadable file missing from report")
	}
	if rep.Clean() {
		t.Error("report claims clean load")
	}
}

func TestLoadAllFilesUnreadable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "badge-001.seg"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := OpenSegments(dir)
	if !errors.Is(err, ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if len(rep.Failed) != 1 {
		t.Errorf("failed files = %d", len(rep.Failed))
	}
}

func TestLoadCleanReport(t *testing.T) {
	dir, _, n := saveTwoBadges(t)
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Errorf("clean archive reported dirty: %+v", rep)
	}
	if st := rep.Badges[1]; st.File != segFileName(1) || st.Records != n {
		t.Errorf("badge 1 status = %+v, want %s with %d records", st, segFileName(1), n)
	}
}

func TestLoadManyBadgesParallel(t *testing.T) {
	// More badges than pool workers: exercise the fan-out of both the save
	// and the open end to end.
	dir := t.TempDir()
	d := NewDataset()
	const badges, per = 30, 200
	for id := BadgeID(1); id <= badges; id++ {
		s := d.Series(id)
		for i := 0; i < per; i++ {
			s.Append(record.NewEnv(time.Duration(i)*time.Second, 21, 0, 0))
		}
	}
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Error("parallel open not clean")
	}
	if ss.TotalRecords() != badges*per {
		t.Errorf("records = %d, want %d", ss.TotalRecords(), badges*per)
	}
	if got := len(ss.Badges()); got != badges {
		t.Fatalf("badges = %d, want %d", got, badges)
	}
	for _, id := range ss.Badges() {
		if !recordsEqual(scan(mustView(t, ss, id), minDuration, maxDuration, 0), d.Series(id).All()) {
			t.Fatalf("badge %d differs after round trip", id)
		}
	}
}

// A failed save must not destroy the previous good file: SaveSegments
// writes each segment to a temp file and renames only on success, so an
// error mid-write (here, a record no codec exists for, standing in for a
// crash or full disk) leaves the old bytes untouched and readable.
func TestSaveSegmentsFailureKeepsOldFile(t *testing.T) {
	dir, _, n := saveTwoBadges(t)

	bad := NewDataset()
	s := bad.Series(1)
	for i := 0; i < 10; i++ {
		s.Append(record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindBeacon})
	}
	s.Append(record.Record{Local: 11 * time.Second, Kind: record.Kind(200)})
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

// A failed save of a badge that has no file yet must leave nothing behind
// for it: the temp file is removed and no partial segment is renamed into
// place, and the old archive stays whole.
func TestSaveFailureKeepsOldFile(t *testing.T) {
	dir, d, n := saveTwoBadges(t)

	bad := NewDataset()
	bad.Series(3).Append(record.Record{Local: time.Second, Kind: record.Kind(200)})
	if err := bad.SaveSegments(dir); err == nil {
		t.Fatal("SaveSegments of unencodable record should fail")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.Contains(name, ".tmp-") || name == segFileName(3) {
			t.Errorf("failed save left %q behind", name)
		}
	}

	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("open after failed save: %v", err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Errorf("report not clean after failed save: %+v", rep)
	}
	for _, id := range d.Badges() {
		if got := mustView(t, ss, id).Len(); got != n {
			t.Errorf("badge %d records = %d, want %d", id, got, n)
		}
	}
}
