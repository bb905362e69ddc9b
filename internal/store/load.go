package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"icares/internal/record"
)

// ioWorkers bounds the pool Save and Load fan badge files out across: one
// worker per file up to GOMAXPROCS, capped so a 30-badge dataset on a big
// machine does not open 30 file handles at once for little gain.
func ioWorkers(files int) int {
	w := runtime.GOMAXPROCS(0)
	if w > files {
		w = files
	}
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Save writes one log file per badge into dir, creating it if needed. The
// badge files are written concurrently by a bounded worker pool.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("save dataset: %w", err)
	}
	return d.saveEach(func(id BadgeID, s *Series) error { return saveOne(dir, id, s) })
}

// fanOut calls do(i) for every i in [0, n) on a pool of ioWorkers(n)
// goroutines and returns once every call has finished. Callers write
// results into their own slot i, so output order never depends on worker
// scheduling.
func fanOut(n int, do func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < ioWorkers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// saveEach calls save for every badge series across the worker pool and
// returns the first error in ascending badge order. The (id, series) pairs
// are snapshotted under the read lock first.
func (d *Dataset) saveEach(save func(id BadgeID, s *Series) error) error {
	d.mu.RLock()
	type job struct {
		id BadgeID
		s  *Series
	}
	jobs := make([]job, 0, len(d.series))
	for id, s := range d.series {
		jobs = append(jobs, job{id, s})
	}
	d.mu.RUnlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	errs := make([]error, len(jobs))
	fanOut(len(jobs), func(i int) { errs[i] = save(jobs[i].id, jobs[i].s) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func saveOne(dir string, id BadgeID, s *Series) error {
	err := atomicWrite(dir, logFileName(id), func(f *os.File) error {
		lw, err := record.NewLogWriter(f, uint16(id))
		if err != nil {
			return fmt.Errorf("header: %w", err)
		}
		for _, r := range s.All() {
			if err := lw.Append(r); err != nil {
				return fmt.Errorf("append: %w", err)
			}
		}
		return lw.Flush()
	})
	if err != nil {
		return fmt.Errorf("save badge %d: %w", id, err)
	}
	return nil
}

// atomicWrite writes dir/name crash-safely: the payload goes to a
// temporary file in the same directory, is fsynced, and only then renamed
// over the final path — so a crash (or write error) mid-save leaves any
// previous good file untouched instead of a truncated ruin. The directory
// itself is synced best-effort after the rename so the new name is durable
// too.
func atomicWrite(dir, name string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	committed = true
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// BadgeLoadStatus describes how one badge log loaded.
type BadgeLoadStatus struct {
	// File is the log file name within the dataset directory.
	File string
	// Records is how many records were salvaged into the dataset.
	Records int
	// Skipped counts corrupt frames skipped mid-log (SD-card bit rot).
	Skipped int
	// Truncated reports that the log ended mid-frame — the card was pulled
	// or the badge died while a frame was being written. The records
	// before the truncation point are intact and were kept.
	Truncated bool
}

// LoadReport summarizes how a dataset load went: which badges loaded
// cleanly, which were salvaged (truncated tails, skipped frames), and
// which files could not be read at all.
type LoadReport struct {
	// Badges maps each loaded badge to its load status.
	Badges map[BadgeID]BadgeLoadStatus
	// Failed maps unreadable log files (missing or corrupt header) to the
	// error; their badges contribute no records but the rest of the
	// dataset still loads.
	Failed map[string]error
}

// Clean reports whether every badge log loaded fully: no truncated tails,
// no skipped frames, no unreadable files.
func (r *LoadReport) Clean() bool {
	if len(r.Failed) > 0 {
		return false
	}
	for _, st := range r.Badges {
		if st.Truncated || st.Skipped > 0 {
			return false
		}
	}
	return true
}

// loadResult is one parsed badge log, before merging into the dataset.
type loadResult struct {
	id        uint16
	recs      []record.Record
	skipped   int
	truncated bool
	err       error
}

// Load reads every badge log in dir into a new dataset, salvaging
// partially written logs. Use LoadWithReport to see what was salvaged.
func Load(dir string) (*Dataset, error) {
	d, _, err := LoadWithReport(dir)
	return d, err
}

// LoadWithReport reads every badge log in dir into a new dataset, parsing
// badge files concurrently with a bounded worker pool. A truncated tail
// frame (the SD card pulled mid-write) or corrupt frames mid-log keep the
// records read so far and mark the badge in the report; only an unreadable
// directory — or a directory with no loadable badge data at all — fails
// the load.
func LoadWithReport(dir string) (*Dataset, *LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("load dataset: %w", err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".icr" {
			continue
		}
		files = append(files, e.Name())
	}
	sort.Strings(files)

	results := make([]loadResult, len(files))
	fanOut(len(files), func(i int) { results[i] = loadFile(filepath.Join(dir, files[i])) })

	d := NewDataset()
	rep := &LoadReport{Badges: make(map[BadgeID]BadgeLoadStatus), Failed: make(map[string]error)}
	// Merge sequentially in file-name order so a duplicate badge ID resolves
	// deterministically regardless of worker scheduling: the first readable
	// log for a badge wins, and a later one is reported failed, as in
	// OpenSegments.
	for i, name := range files {
		res := results[i]
		if res.err != nil {
			rep.Failed[name] = res.err
			continue
		}
		id := BadgeID(res.id)
		if _, dup := rep.Badges[id]; dup {
			rep.Failed[name] = fmt.Errorf("store: duplicate log for badge %d", id)
			continue
		}
		s := d.Series(id)
		for _, r := range res.recs {
			s.Append(r)
		}
		rep.Badges[id] = BadgeLoadStatus{
			File:      name,
			Records:   len(res.recs),
			Skipped:   res.skipped,
			Truncated: res.truncated,
		}
	}
	if len(rep.Badges) == 0 {
		return nil, rep, ErrNoData
	}
	return d, rep, nil
}

// loadFile parses one badge log, keeping everything readable.
func loadFile(path string) loadResult {
	f, err := os.Open(path)
	if err != nil {
		return loadResult{err: fmt.Errorf("open %s: %w", path, err)}
	}
	defer f.Close()
	lr, err := record.NewLogReader(f)
	if err != nil {
		return loadResult{err: fmt.Errorf("read %s: %w", path, err)}
	}
	res := loadResult{id: lr.BadgeID()}
	for {
		rec, err := lr.Next()
		if err != nil {
			if err != io.EOF {
				// A read error below the codec (I/O fault mid-file): keep
				// what was salvaged and treat the rest as truncated.
				res.truncated = true
			}
			res.skipped = lr.Skipped()
			res.truncated = res.truncated || lr.Truncated()
			return res
		}
		res.recs = append(res.recs, rec)
	}
}
