package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement. N is the number of samples behind a
// timing (0 for values that are not sampled timings).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// outcome is what one workload run produces: its metrics in emission
// order, and how many operations it attempted and how many failed. A
// failed correctness gate counts as a failed operation.
type outcome struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string
	Metrics   []metric
}

func (o *outcome) add(name string, v float64, unit string) { o.addN(name, v, unit, 0) }

func (o *outcome) addN(name string, v float64, unit string, n int) {
	o.Metrics = append(o.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// fail records one failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// lookup returns the named metric.
func (o *outcome) lookup(name string) (metric, bool) {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// gate checks outputs against reference digests: the first output under a
// key becomes its reference, and every later output under that key must
// match it. tamper, when set, alters each reference as it is recorded —
// the test seam showing that the gate fires.
type gate struct {
	mu     sync.Mutex
	refs   map[string][32]byte
	tamper func(ref *[32]byte)
}

func newGate(tamper func(ref *[32]byte)) *gate {
	return &gate{refs: make(map[string][32]byte), tamper: tamper}
}

// check reports whether out matches the reference under key, recording
// it as the reference when there is none yet.
func (g *gate) check(key string, out []byte) bool {
	sum := sha256.Sum256(out)
	g.mu.Lock()
	defer g.mu.Unlock()
	ref, ok := g.refs[key]
	if !ok {
		if g.tamper != nil {
			g.tamper(&sum)
		}
		g.refs[key] = sum
		return true
	}
	return ref == sum
}

// derive maps the workload seed and an index to a mission seed
// (splitmix64), so neighbouring workload seeds share no missions.
func derive(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// phase measures one stretch of operations: their wall and normalized
// latencies, the bytes allocated, the peak heap, and the CPU the runtime
// spent in GC. The calibration kernel runs between operations; its time
// and allocation are left out of every total.
type phase struct {
	Lat     []float64 // wall ms per operation
	Norm    []float64 // the same, normalized to the reference host speed
	Kernel  []float64 // kernel ms next to each operation
	Peaks   []float64 // MB, highest heap reading between consecutive kernels
	AllocMB float64   // total allocated by the operations
	GCFrac  float64   // GC CPU over all CPU time used in the phase
	RChar   int64     // bytes read through read(2) and friends (Linux only)

	kernels    int // kernel runs inside the phase
	alloc0     uint64
	cpu0       [2]float64
	rchar0     int64
	stopSample chan struct{}
	sampled    sync.WaitGroup
	peak       atomic.Uint64 // highest heap reading since the last kernel
}

// beginPhase collects garbage left by earlier work, then starts the
// counters and a 1 ms heap sampler.
func beginPhase() *phase {
	runtime.GC()
	p := &phase{stopSample: make(chan struct{})}
	p.alloc0 = totalAlloc()
	p.cpu0 = cpuSeconds()
	p.rchar0, _ = readChar()
	p.sampled.Add(1)
	go p.sampleHeap()
	return p
}

// kernel runs the calibration kernel inside the phase. Kernels bound the
// intervals the heap peaks are taken over: each records the highest heap
// reading since the previous one, and the kernel's own allocation is not
// charged to the next interval.
func (p *phase) kernel() float64 {
	if p.kernels > 0 {
		p.Peaks = append(p.Peaks, float64(max(p.peak.Swap(0), heapBytes()))/mib)
	}
	p.kernels++
	k := kernelMs()
	p.peak.Store(0)
	return k
}

// record adds one operation's wall latency and the kernel time next to it.
func (p *phase) record(lat, kernel float64) {
	p.Lat = append(p.Lat, lat)
	p.Norm = append(p.Norm, normalize(lat, kernel))
	p.Kernel = append(p.Kernel, kernel)
}

// heapBytes reads the bytes of live and not yet swept heap objects.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (p *phase) sampleHeap() {
	defer p.sampled.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		v := heapBytes()
		for {
			cur := p.peak.Load()
			if v <= cur || p.peak.CompareAndSwap(cur, v) {
				break
			}
		}
		select {
		case <-p.stopSample:
			return
		case <-tick.C:
		}
	}
}

// end stops the sampler and fills in the phase totals.
func (p *phase) end() {
	close(p.stopSample)
	p.sampled.Wait()
	p.AllocMB = (float64(totalAlloc()-p.alloc0) - float64(p.kernels)*float64(kernelAllocBytes())) / mib
	cpu := cpuSeconds()
	if total := cpu[1] - p.cpu0[1]; total > 0 {
		p.GCFrac = (cpu[0] - p.cpu0[0]) / total
	}
	if rc, ok := readChar(); ok {
		p.RChar = rc - p.rchar0
	}
}

// ops returns how many operations the phase timed.
func (p *phase) ops() int { return len(p.Lat) }

// busySeconds is the wall time the operations took, kernels excluded.
func (p *phase) busySeconds() float64 {
	var sum float64
	for _, l := range p.Lat {
		sum += l
	}
	return sum / 1000
}

// perOp divides a phase total by its operation count.
func (p *phase) perOp(v float64) float64 {
	if len(p.Lat) == 0 {
		return 0
	}
	return v / float64(len(p.Lat))
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuSeconds returns the runtime's estimate of GC CPU seconds and total
// CPU seconds used by the process so far.
func cpuSeconds() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// readChar returns the process's rchar counter from /proc/self/io: bytes
// passed through read-like system calls, whether or not they hit the page
// cache. ok is false where the file does not exist.
func readChar() (int64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// closedLoop runs op back to back, one at a time, until budget has
// elapsed or max operations have run (max <= 0: no cap), recording each
// operation into ph with the mean of the kernel times before and after it.
// At least one operation always runs. op returns an error only when the
// workload cannot continue; a wrong result is recorded on the outcome by
// op itself and the loop goes on.
func closedLoop(ph *phase, budget time.Duration, max int, op func(i int) error) error {
	deadline := time.Now().Add(budget)
	k := ph.kernel()
	for i := 0; i == 0 || (time.Now().Before(deadline) && (max <= 0 || i < max)); i++ {
		start := time.Now()
		if err := op(i); err != nil {
			return err
		}
		lat := ms(time.Since(start))
		next := ph.kernel()
		ph.record(lat, (k+next)/2)
		k = next
	}
	return nil
}

// measureUntraced runs one warm-up operation (measure with no budget runs
// exactly one), then measures for the budget.
func measureUntraced(budget time.Duration, measure func(ph *phase, budget time.Duration) error) (*phase, error) {
	if err := measure(&phase{}, 0); err != nil {
		return nil, err
	}
	ph := beginPhase()
	err := measure(ph, budget)
	ph.end()
	return ph, err
}

// addPhase emits the end-to-end metrics every workload shares, taken from
// its measured phase, and the wall-clock readings beside them.
func addPhase(o *outcome, ph *phase) {
	o.addN("op_p50_ms", quantile(ph.Norm, 0.5), "ms", ph.ops())
	o.addN("op_p90_ms", quantile(ph.Norm, 0.9), "ms", ph.ops())
	o.addN("alloc_mb_per_op", ph.perOp(ph.AllocMB), "MB", ph.ops())
	o.addN("peak_heap_mb", quantile(ph.Peaks, 0.5), "MB", len(ph.Peaks))
	o.addN("peak_heap_max_mb", quantile(ph.Peaks, 1), "MB", len(ph.Peaks))
	o.addN("wall.op_p50_ms", quantile(ph.Lat, 0.5), "ms", ph.ops())
	o.addN("wall.op_p90_ms", quantile(ph.Lat, 0.9), "ms", ph.ops())
	o.addN("kernel_ms", quantile(ph.Kernel, 0.5), "ms", ph.ops())
}
