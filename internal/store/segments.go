package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icares/internal/record"
	"icares/internal/segment"
)

// View is the read contract a sociometric query runs against: the
// in-memory Series and the out-of-core segment.Reader both satisfy it, so
// analyses can be pointed at either a resident dataset or a reopened
// segment directory without caring which. Iter is the record read path
// (k == 0 iterates every kind): per-window folds step it, which is what
// keeps resident memory bounded by the backend's cache rather than the
// dataset. Times is its timestamp-only projection — the Local of every
// record in [from, to), in series order — for scans that read nothing
// else, so a backend never builds records they would throw away. Len,
// First and Last answer size and extent without a scan.
type View interface {
	Iter(from, to time.Duration, k record.Kind) record.Cursor
	Times(from, to time.Duration) record.TimeCursor
	Len() int
	First() (record.Record, bool)
	Last() (record.Record, bool)
}

// Viewer is the read-side source abstraction the analysis pipeline runs
// against: the badges present and a View per badge. Dataset (resident) and
// SegmentStore (out-of-core) both satisfy it. View returns ok == false for
// a badge with no data — never a typed-nil View.
type Viewer interface {
	Badges() []BadgeID
	View(id BadgeID) (View, bool)
}

var (
	_ View = (*Series)(nil)
	_ View = (*segment.Reader)(nil)

	_ Viewer = (*Dataset)(nil)
	_ Viewer = (*SegmentStore)(nil)
)

// minDuration/maxDuration span the whole timestamp domain, for full scans
// through the half-open Iter windows.
const (
	minDuration = time.Duration(math.MinInt64)
	maxDuration = time.Duration(math.MaxInt64)
)

// segFileName returns the on-disk segment name of a badge.
func segFileName(id BadgeID) string {
	return fmt.Sprintf("badge-%03d.seg", id)
}

// manifestName is the per-directory sidecar recording save-time dataset
// facts an immutable archive cannot reconstruct from the segments alone.
const manifestName = "manifest.json"

// manifest is the JSON sidecar written next to the segments. FramedBytes
// preserves the dataset's framed-log size for the paper's bytes-per-crew
// accounting; it is a cache, recomputable from the segments. Segments hold
// raw device time, so clock corrections are never persisted: a reopened
// archive re-fits them from its sync records.
type manifest struct {
	FramedBytes int64 `json:"framed_bytes"`
}

// ErrRectifiedArchive is returned by OpenSegments for an archive whose
// manifest says its timestamps were rewritten to reference time before
// saving — the layout of older builds. Re-fitting clock corrections on
// reference-time stamps would silently change every result, so such an
// archive is refused rather than read.
var ErrRectifiedArchive = errors.New("store: archive holds rectified timestamps (saved by an older build); re-archive from raw data")

// SaveSegments writes the dataset as one compressed, immutable segment
// file per badge into dir, readable out-of-core with OpenSegments. It is the
// one on-disk dataset format: the persistent form of each series' read
// order.
// Badge files are written atomically (temp + fsync + rename) by a bounded
// worker pool, and the first error in ascending badge order is returned.
func (d *Dataset) SaveSegments(dir string) error {
	return d.saveSegments(dir, 0)
}

// saveSegments is SaveSegments with an explicit records-per-block size
// (<= 0 selects segment.DefaultBlockSize); tests use it to exercise block
// boundary cases.
func (d *Dataset) saveSegments(dir string, blockSize int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save segments: %w", err)
	}
	ids := d.Badges()
	errs := make([]error, len(ids))
	fanOut(len(ids), func(i int) { errs[i] = saveOneSegment(dir, ids[i], d.Series(ids[i]), blockSize) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	man := manifest{FramedBytes: d.EncodedBytes()}
	err := atomicWrite(dir, manifestName, func(f *os.File) error {
		return json.NewEncoder(f).Encode(man)
	})
	if err != nil {
		return fmt.Errorf("save segments: %w", err)
	}
	return nil
}

func saveOneSegment(dir string, id BadgeID, s *Series, blockSize int) error {
	err := atomicWrite(dir, segFileName(id), func(f *os.File) error {
		sw, err := segment.NewWriter(f, uint16(id), blockSize)
		if err != nil {
			return err
		}
		for _, r := range s.All() {
			if err := sw.Append(r); err != nil {
				return err
			}
		}
		return sw.Finish()
	})
	if err != nil {
		return fmt.Errorf("save segment badge %d: %w", id, err)
	}
	return nil
}

// SegmentStore is a dataset reopened out-of-core from a segment directory:
// per-badge segment readers answering the same View queries as the
// in-memory store, while keeping only block indexes and a small
// decoded-block cache resident. Safe for concurrent readers.
type SegmentStore struct {
	dir     string
	readers map[BadgeID]*segment.Reader

	// framedBytes is the manifest's framed size; 0 (manifest absent or
	// unreadable) means recompute on demand.
	framedBytes int64

	// Fallback framed-size accounting when the manifest is missing: one
	// streaming scan over every surviving record, memoized.
	encOnce  sync.Once
	encBytes int64
}

// OpenSegments opens every badge segment in dir for out-of-core reads,
// salvaging what it can: a segment with a damaged index or damaged blocks
// contributes what is readable and is marked in the report, and so does a
// manifest that is present but unparseable (under Failed["manifest.json"];
// the framed size is then recomputed, so no result moves). Only an
// unreadable directory, one with no usable segment data at all (ErrNoData),
// or a manifest marking the archive rectified (ErrRectifiedArchive) fails
// the open.
func OpenSegments(dir string) (*SegmentStore, *LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("open segments: %w", err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		files = append(files, e.Name())
	}
	sort.Strings(files)

	type result struct {
		rd  *segment.Reader
		err error
	}
	results := make([]result, len(files))
	fanOut(len(files), func(i int) {
		rd, err := segment.Open(filepath.Join(dir, files[i]))
		results[i] = result{rd, err}
	})

	ss := &SegmentStore{dir: dir, readers: make(map[BadgeID]*segment.Reader)}
	rep := &LoadReport{Badges: make(map[BadgeID]BadgeLoadStatus), Failed: make(map[string]error)}
	// Resolve in file-name order so duplicate badge IDs (and the report)
	// come out deterministically regardless of worker scheduling.
	for i, name := range files {
		res := results[i]
		if res.err != nil {
			rep.Failed[name] = res.err
			continue
		}
		id := BadgeID(res.rd.BadgeID())
		if _, dup := ss.readers[id]; dup {
			res.rd.Close()
			rep.Failed[name] = fmt.Errorf("store: duplicate segment for badge %d", id)
			continue
		}
		ss.readers[id] = res.rd
		rep.Badges[id] = BadgeLoadStatus{
			File:      name,
			Records:   res.rd.Len(),
			Skipped:   res.rd.Skipped(),
			Truncated: res.rd.Truncated(),
		}
	}
	if len(rep.Badges) == 0 {
		return nil, rep, ErrNoData
	}
	// An archive without a manifest (older layout, or the sidecar was lost)
	// still opens, with the framed size recomputed on demand.
	if data, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		// Rectified is only ever read: older builds set it when they had
		// rewritten the timestamps before saving.
		var man struct {
			manifest
			Rectified bool `json:"rectified"`
		}
		switch err := json.Unmarshal(data, &man); {
		case err != nil:
			rep.Failed[manifestName] = fmt.Errorf("store: manifest: %w", err)
		case man.Rectified:
			ss.Close()
			return nil, rep, fmt.Errorf("open segments %s: %w", dir, ErrRectifiedArchive)
		default:
			ss.framedBytes = man.FramedBytes
		}
	}
	return ss, rep, nil
}

// Badges returns the badge IDs present, sorted.
func (ss *SegmentStore) Badges() []BadgeID {
	out := make([]BadgeID, 0, len(ss.readers))
	for id := range ss.readers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// View returns the badge's read view, or ok == false when the badge has no
// segment.
func (ss *SegmentStore) View(id BadgeID) (View, bool) {
	rd, ok := ss.readers[id]
	if !ok {
		return nil, false
	}
	return rd, true
}

// EncodedBytes returns the dataset's framed-log size — the figure
// corresponding to the paper's "150 GiB of data", matching what
// Dataset.EncodedBytes reported at save time. It answers from the manifest
// when present; otherwise it streams every surviving record once (memoized)
// and sums record.EncodedSize, which equals the in-memory accounting over
// the same records.
func (ss *SegmentStore) EncodedBytes() int64 {
	if ss.framedBytes > 0 {
		return ss.framedBytes
	}
	ss.encOnce.Do(func() {
		var n int64
		for _, rd := range ss.readers {
			it := rd.Iter(minDuration, maxDuration, 0)
			for it.Next() {
				if sz, err := record.EncodedSize(it.Record()); err == nil {
					n += int64(sz)
				}
			}
		}
		ss.encBytes = n
	})
	return ss.encBytes
}

// SetCacheBlocks resizes every reader's decoded-block cache (minimum 1 per
// reader) — the knob bounding the store's resident set.
func (ss *SegmentStore) SetCacheBlocks(n int) {
	for _, rd := range ss.readers {
		rd.SetCacheBlocks(n)
	}
}

// TotalRecords returns the record count across all badges, from the block
// indexes alone.
func (ss *SegmentStore) TotalRecords() int {
	var n int
	for _, rd := range ss.readers {
		n += rd.Len()
	}
	return n
}

// BytesOnDisk returns the total segment file size — the on-disk cost to
// hold against Dataset.EncodedBytes for the compression ratio.
func (ss *SegmentStore) BytesOnDisk() int64 {
	var n int64
	for _, rd := range ss.readers {
		n += rd.BytesOnDisk()
	}
	return n
}

// CorruptBlocks returns how many blocks across the store failed their CRC
// at query time so far.
func (ss *SegmentStore) CorruptBlocks() int64 {
	var n int64
	for _, rd := range ss.readers {
		n += rd.CorruptBlocks()
	}
	return n
}

// Close releases every badge segment file.
func (ss *SegmentStore) Close() error {
	var first error
	for _, rd := range ss.readers {
		if err := rd.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
