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

// viewerDataset builds a small two-badge dataset for the Viewer and
// manifest tests.
func viewerDataset() *Dataset {
	d := NewDataset()
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * time.Second
		d.Series(1).Append(record.NewEnv(at, 21, 0, 300))
		d.Series(2).Append(record.NewBeacon(at, 3, -48))
	}
	return d
}

// TestSegmentStoreViewAvoidsTypedNil pins the View accessor's miss: a badge
// with no segment is ok == false with a genuinely nil interface, never a
// typed-nil reader wrapped in a non-nil View.
func TestSegmentStoreViewAvoidsTypedNil(t *testing.T) {
	d := viewerDataset()
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	ss, _, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	if v, ok := ss.View(99); ok || v != nil {
		t.Fatalf("View(99) = %v, %v; want nil, false", v, ok)
	}
	v, ok := ss.View(1)
	if !ok {
		t.Fatal("View(1) missing")
	}
	if v.Len() != 50 {
		t.Fatalf("View(1).Len() = %d, want 50", v.Len())
	}
}

// TestDatasetViewDoesNotCreate pins that Dataset.View is a pure read: a
// miss reports ok == false without materializing an empty series the way
// Series does.
func TestDatasetViewDoesNotCreate(t *testing.T) {
	d := NewDataset()
	if _, ok := d.View(7); ok {
		t.Fatal("View on empty dataset reported ok")
	}
	if n := len(d.Badges()); n != 0 {
		t.Fatalf("View created a series: %d badges", n)
	}
	d.Series(7).Append(record.NewWear(time.Second, true))
	v, ok := d.View(7)
	if !ok || v.Len() != 1 {
		t.Fatalf("View(7) after append: ok=%v len=%d", ok, v.Len())
	}
}

// TestManifestRoundTrip pins the save-time sidecar: it carries only the
// framed size (segments hold raw device time, so there are no corrections
// to persist); a missing manifest recomputes the size from the segments; a
// present but unparseable one is reported in the LoadReport, with the size
// still recomputed; and a manifest an older build marked rectified refuses
// to open.
func TestManifestRoundTrip(t *testing.T) {
	d := viewerDataset()
	dir := t.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"rectified"`, `"corrections"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("manifest %s still writes %s", data, key)
		}
	}

	ss, rep, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("fresh archive: dirty load report %+v", rep)
	}
	if ss.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("EncodedBytes() = %d, want framed size %d", ss.EncodedBytes(), d.EncodedBytes())
	}
	ss.Close()

	// Lost sidecar: still opens cleanly, framed size recomputed by streaming
	// the surviving records — which equals the framed accounting.
	if err := os.Remove(manPath); err != nil {
		t.Fatal(err)
	}
	ss2, rep2, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Errorf("manifestless archive: dirty load report %+v", rep2)
	}
	if ss2.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("manifestless EncodedBytes() = %d, want %d", ss2.EncodedBytes(), d.EncodedBytes())
	}
	ss2.Close()

	// Corrupt sidecar: the archive opens, the damage is reported, and the
	// recomputed framed size keeps results where they were.
	if err := os.WriteFile(manPath, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	ss3, rep3, err := OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Clean() || rep3.Failed[manifestName] == nil {
		t.Errorf("corrupt manifest not reported: %+v", rep3)
	}
	if ss3.EncodedBytes() != d.EncodedBytes() {
		t.Errorf("corrupt-manifest EncodedBytes() = %d, want %d", ss3.EncodedBytes(), d.EncodedBytes())
	}
	ss3.Close()

	// Legacy manifests: an unrectified one still opens and is honoured; a
	// rectified one holds reference-time stamps and is refused.
	legacy := `{"rectified":false,"framed_bytes":12345}`
	if err := os.WriteFile(manPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	ss4, rep4, err := OpenSegments(dir)
	if err != nil {
		t.Fatalf("legacy unrectified manifest: %v", err)
	}
	if !rep4.Clean() || ss4.EncodedBytes() != 12345 {
		t.Errorf("legacy unrectified manifest: clean=%v EncodedBytes()=%d, want true, 12345", rep4.Clean(), ss4.EncodedBytes())
	}
	ss4.Close()
	legacy = `{"rectified":true,"framed_bytes":12345,"corrections":[{"badge":1,"offset_ns":5000000,"skew":2e-05,"residual_ns":40000,"n":6}]}`
	if err := os.WriteFile(manPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if ss5, _, err := OpenSegments(dir); !errors.Is(err, ErrRectifiedArchive) {
		if ss5 != nil {
			ss5.Close()
		}
		t.Fatalf("legacy rectified manifest: err = %v, want ErrRectifiedArchive", err)
	}
}
