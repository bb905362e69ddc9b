package sociometry

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism returns the fan-out width for crew-parallel analyses: the
// pipeline's configured Parallelism, defaulting to runtime.NumCPU().
func (p *Pipeline) parallelism() int {
	if n := p.Parallelism; n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// forEach runs fn(i) for every i in [0, n) across a bounded worker pool and
// waits for all of them. Callers keep determinism by writing results into
// per-index slots and folding them in index order afterwards.
func (p *Pipeline) forEach(n int, fn func(i int)) {
	workers := p.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forEachName fans fn out across the crew.
func (p *Pipeline) forEachName(fn func(name string)) {
	p.forEach(len(p.src.Names), func(i int) { fn(p.src.Names[i]) })
}

// Warm concurrently precomputes every memoized per-astronaut derivation —
// records, worn ranges, localization tracks, room intervals, activity
// windows, and mic frames — across the crew, using the pipeline's fan-out
// width. Analyses issued afterwards run from the caches. Warm is safe to
// call concurrently and is idempotent; the crew-level analyses call it
// implicitly, so explicit use is only an optimization for callers that go
// astronaut by astronaut.
func (p *Pipeline) Warm() {
	p.beginAnalysis()
	defer p.endAnalysis()
	p.forEachName(func(name string) {
		p.Track(name)
		p.Frames(name)
		p.Intervals(name)
		p.walkingSamples(name)
	})
}
