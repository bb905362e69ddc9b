package store

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// ioWorkers bounds the pool SaveSegments and OpenSegments fan badge files
// out across: one worker per file up to GOMAXPROCS, capped so a 30-badge
// dataset on a big machine does not open 30 file handles at once for little
// gain.
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

// BadgeLoadStatus describes how one badge segment opened.
type BadgeLoadStatus struct {
	// File is the segment file name within the archive directory.
	File string
	// Records is how many records the segment holds after salvage.
	Records int
	// Skipped counts corrupt blocks the salvage scan dropped (bit rot in a
	// segment whose index was lost or damaged).
	Skipped int
	// Truncated reports that the segment ended mid-block — a crash or a
	// pulled card while it was being written. The blocks before the
	// truncation point are intact and were kept.
	Truncated bool
}

// LoadReport summarizes how an archive open went: which badges opened
// cleanly, which were salvaged (truncated tails, skipped blocks), and
// which files could not be read at all.
type LoadReport struct {
	// Badges maps each opened badge to its status.
	Badges map[BadgeID]BadgeLoadStatus
	// Failed maps unreadable files (missing or corrupt header, a duplicate
	// badge, an unparseable manifest) to the error; their badges contribute
	// no records but the rest of the archive still opens.
	Failed map[string]error
}

// Clean reports whether every badge segment opened fully: no truncated
// tails, no skipped blocks, no unreadable files.
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
