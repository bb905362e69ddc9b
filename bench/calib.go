package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalization. The benchmark shares a 2-vCPU machine with
// other tenants, and their load swings the speed of allocation-heavy Go
// code by up to 2x over minutes: the same report took 65 ms in one minute
// and 121 ms a few minutes later. A fixed calibration kernel, run right
// after every timed operation, slows down in step. Each operation's time
// is scaled by refKernelMs over the kernel's time next to it, which reads
// as the time the operation would take on the host at its reference speed.
// Over eight minutes of back-to-back reports this cut the spread of
// 12-second medians from 14% to 1.5%.
//
// The kernel allocates, as the workloads do, because allocation is what
// the slowdowns hit hardest; a kernel of pure arithmetic tracked them
// poorly. Adding 90 MB of allocation to each report moved the wall time
// by 13.4% and the normalized time by 11.7%, so a change in the program's
// own allocation still shows, slightly damped. Wall-clock values are
// printed next to every normalized one.

// refKernelMs is the kernel's time on the reference host (2-vCPU Xeon VM,
// 2.1 GHz) when other tenants are quiet.
const refKernelMs = 3.0

var calibSink int

type calibNode struct {
	key  int
	next *calibNode
	pad  [4]int
}

// calibKernel builds a linked list and a map of 20000 entries and sorts
// their keys: allocation, pointer chasing, hashing and sorting.
func calibKernel() {
	m := make(map[int]*calibNode)
	var head *calibNode
	for i := 0; i < 20000; i++ {
		n := &calibNode{key: (i * 7919) % 10007, next: head}
		head = n
		m[n.key] = n
	}
	keys := make([]float64, 0, 20000)
	for n := head; n != nil; n = n.next {
		keys = append(keys, float64(n.key))
	}
	sort.Float64s(keys)
	calibSink += len(m) + int(keys[len(keys)/2])
}

// kernelMs runs the kernel once and returns its milliseconds.
func kernelMs() float64 {
	start := time.Now()
	calibKernel()
	return ms(time.Since(start))
}

// kernelAllocBytes is what one kernel run allocates, measured once, so
// phases can leave the kernel's allocation out of their totals.
var kernelAllocBytes = sync.OnceValue(func() uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		before := totalAlloc()
		calibKernel()
		if d := totalAlloc() - before; d < best {
			best = d
		}
	}
	return best
})

// normalize scales a wall time by the reference kernel time over the
// kernel time measured next to it.
func normalize(v, kernel float64) float64 { return v * refKernelMs / kernel }

// timeSetups runs setup n times and returns the median normalized and wall
// seconds. Before each run, release drops the previous run's state and the
// heap is collected, so every run starts from the same heap; the last
// run's state is what the workload measures against.
func timeSetups(n int, release func(), setup func() error) (norm, wall float64, err error) {
	var norms, walls []float64
	for i := 0; i < n; i++ {
		release()
		runtime.GC()
		k0 := kernelMs()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		secs := time.Since(start).Seconds()
		walls = append(walls, secs)
		norms = append(norms, normalize(secs, (k0+kernelMs())/2))
	}
	return quantile(norms, 0.5), quantile(walls, 0.5), nil
}
