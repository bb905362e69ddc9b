package segment

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// TestCountersAgreeAfterCorruptDrop pins the satellite-2 contract: the
// reader's counters are lazily consistent. Before any block is decoded they
// answer from the index (the damage is not yet known); after a scan that
// touched every block, Len() equals what the full scan yielded, the
// corrupt block's records are gone, and each per-kind scan returns exactly
// that kind's surviving records.
func TestCountersAgreeAfterCorruptDrop(t *testing.T) {
	recs := randRecords(stats.NewRNG(17), 1000)
	raw := writeSegment(t, 3, 100, recs)
	rd0 := openBytes(t, raw)
	off := rd0.blocks[4].offset + rd0.blocks[4].length/2
	mut := append([]byte(nil), raw...)
	mut[off] ^= 0x40

	rd := openBytes(t, mut)
	// Index-only answers before any block is touched.
	if rd.Len() != 1000 {
		t.Fatalf("pre-scan Len() = %d, want index total 1000", rd.Len())
	}
	if rd.CorruptBlocks() != 0 {
		t.Fatalf("pre-scan CorruptBlocks=%d, want 0", rd.CorruptBlocks())
	}

	all := scan(t, rd, minT, maxT, 0)
	if rd.Len() != len(all) {
		t.Fatalf("post-scan Len() = %d disagrees with the full scan's %d", rd.Len(), len(all))
	}
	if len(all) != 900 {
		t.Fatalf("full scan = %d records, want 900 without the corrupt block's 100", len(all))
	}
	if rd.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks() = %d, want 1", rd.CorruptBlocks())
	}

	actual := make(map[record.Kind]int)
	for _, r := range all {
		actual[r.Kind]++
	}
	for k := record.Kind(1); k <= record.KindBattery; k++ {
		if got := len(scan(t, rd, minT, maxT, k)); got != actual[k] {
			t.Errorf("kind %v scan = %d records, want %d surviving", k, got, actual[k])
		}
	}

	// Times skips the corrupt block exactly as Iter does, on a reader that
	// first learns of the damage through it.
	rdT := openBytes(t, mut)
	if got := scanTimes(t, rdT, minT, maxT); !sameTimes(got, locals(all)) {
		t.Fatalf("Times yielded %d timestamps, want the full scan's %d", len(got), len(all))
	}
	if rdT.Len() != len(all) || rdT.CorruptBlocks() != 1 {
		t.Fatalf("after Times: Len=%d CorruptBlocks=%d, want %d, 1",
			rdT.Len(), rdT.CorruptBlocks(), len(all))
	}

	// Idempotent: re-scans neither recount nor resurrect the block.
	scan(t, rd, minT, maxT, 0)
	if rd.Len() != len(all) || rd.CorruptBlocks() != 1 {
		t.Fatalf("re-scan changed counters: Len=%d CorruptBlocks=%d",
			rd.Len(), rd.CorruptBlocks())
	}
}

// TestIterPrunesBlocksByIndex pins the index's job: a per-kind or windowed
// Iter skips, without reading, every block the index proves it does not
// need. Block 4 is damaged; scans that must not touch it leave
// CorruptBlocks at 0, and only a full scan finds the damage.
func TestIterPrunesBlocksByIndex(t *testing.T) {
	// Ten blocks of 100 records, one a second; beacons (ten a block) live
	// only in blocks 2 and 7.
	recs := make([]record.Record, 1000)
	for i := range recs {
		recs[i] = record.Record{Local: time.Duration(i) * time.Second, Kind: record.KindAccel}
		if b := i / 100; (b == 2 || b == 7) && i%10 == 0 {
			recs[i].Kind = record.KindBeacon
		}
	}
	raw := writeSegment(t, 5, 100, recs)
	blk := openBytes(t, raw).blocks[4]
	mut := append([]byte(nil), raw...)
	mut[blk.offset+blk.length/2] ^= 0x40

	for _, tc := range []struct {
		from, to time.Duration
		k        record.Kind
		want     int
	}{
		{minT, maxT, record.KindBeacon, 20},              // kind absent from block 4
		{100 * time.Second, 300 * time.Second, 0, 200},   // window before it
		{0, 400 * time.Second, 0, 400},                   // window ending at its first record
		{500 * time.Second, maxT, record.KindAccel, 490}, // window starting after its last
	} {
		rd := openBytes(t, mut)
		if got := scan(t, rd, tc.from, tc.to, tc.k); len(got) != tc.want || rd.CorruptBlocks() != 0 {
			t.Errorf("Iter(%v, %v, %v): %d records, CorruptBlocks = %d; want %d, 0",
				tc.from, tc.to, tc.k, len(got), rd.CorruptBlocks(), tc.want)
		}
	}
	rd := openBytes(t, mut)
	if got := scan(t, rd, minT, maxT, 0); len(got) != 900 || rd.CorruptBlocks() != 1 {
		t.Fatalf("full scan: %d records, CorruptBlocks = %d; want 900, 1", len(got), rd.CorruptBlocks())
	}
}

// TestColdReadsLeaveSeriesUnbuilt pins where the decode saving comes from:
// per-kind Iter, Times, First and Last over a cold reader read the
// kind-grouped columns and the timestamps in place, so no block builds its
// series-order record array; only a whole-stream Iter does. A decoded
// block holds no map.
func TestColdReadsLeaveSeriesUnbuilt(t *testing.T) {
	for i, typ := 0, reflect.TypeOf(decodedBlock{}); i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Map {
			t.Fatalf("decodedBlock.%s is a map", typ.Field(i).Name)
		}
	}
	recs := randRecords(stats.NewRNG(23), 1000)
	rd := openBytes(t, writeSegment(t, 2, 100, recs))
	rd.whole = true
	for k := record.KindAccel; k <= record.KindBattery; k++ {
		if got := scan(t, rd, minT, maxT, k); !sameRecords(got, refKind(recs, k)) {
			t.Fatalf("kind %v scan = %d records, want %d", k, len(got), len(refKind(recs, k)))
		}
	}
	if got := scanTimes(t, rd, minT, maxT); !sameTimes(got, locals(recs)) {
		t.Fatalf("Times = %d timestamps, want %d", len(got), len(recs))
	}
	if r, ok := rd.First(); !ok || r != recs[0] {
		t.Fatalf("First = %+v, %v; want %+v", r, ok, recs[0])
	}
	if r, ok := rd.Last(); !ok || r != recs[len(recs)-1] {
		t.Fatalf("Last = %+v, %v; want %+v", r, ok, recs[len(recs)-1])
	}
	for i := range rd.blocks {
		if blk := rd.block(i); blk.corrupt || blk.recs != nil {
			t.Fatalf("block %d: corrupt=%v, series array built=%v", i, blk.corrupt, blk.recs != nil)
		}
	}
	if got := scan(t, rd, minT, maxT, 0); !sameRecords(got, recs) {
		t.Fatalf("full scan = %d records, want %d", len(got), len(recs))
	}
	for i := range rd.blocks {
		if rd.block(i).recs == nil {
			t.Fatalf("block %d: whole-stream Iter left the series array unbuilt", i)
		}
	}
}

// TestConcurrentSeriesAndTimes runs whole-stream Iter and Times from
// several goroutines on one cold reader, so blocks build their series
// arrays while other goroutines read the same blocks' timestamps, with the
// reader streaming so blocks are also evicted and re-decoded under them.
// Run it under -race.
func TestConcurrentSeriesAndTimes(t *testing.T) {
	recs := randRecords(stats.NewRNG(29), 2000)
	rd := openBytes(t, writeSegment(t, 6, 128, recs))
	rd.whole = false // streamed: every block switch re-decodes mid-scan too
	from, to := recs[300].Local, recs[1700].Local
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, w := range [][2]time.Duration{{minT, maxT}, {from, to}} {
				if g%2 == 0 {
					var got []record.Record
					it := rd.Iter(w[0], w[1], 0)
					for it.Next() {
						got = append(got, it.Record())
					}
					if !sameRecords(got, refRange(recs, w[0], w[1])) {
						t.Errorf("goroutine %d: Iter(%v, %v, 0) = %d records", g, w[0], w[1], len(got))
					}
				} else {
					var got []time.Duration
					it := rd.Times(w[0], w[1])
					for b := it.NextBatch(); b != nil; b = it.NextBatch() {
						got = append(got, b...)
					}
					if !sameTimes(got, locals(refRange(recs, w[0], w[1]))) {
						t.Errorf("goroutine %d: Times(%v, %v) = %d timestamps", g, w[0], w[1], len(got))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// countingReaderAt counts the reads issued through it; after open, each is
// one block fetch and decode.
type countingReaderAt struct {
	io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.ReaderAt.ReadAt(p, off)
}

// TestCacheModeFromIndex pins the cache rule. A reader whose index holds at
// most cacheBlocks blocks opens whole and decodes each block at most once
// across every per-kind Iter, Times, First and Last — the report's pass
// pattern. A longer one streams and never holds more than one decoded
// block, checked after every batch.
func TestCacheModeFromIndex(t *testing.T) {
	recs := randRecords(stats.NewRNG(31), 3000)
	for _, c := range []struct {
		blockSize int
		whole     bool
	}{{100, true}, {20, false}} {
		raw := writeSegment(t, 4, c.blockSize, recs)
		cr := &countingReaderAt{ReaderAt: bytes.NewReader(raw)}
		rd, err := NewReader(cr, int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if rd.whole != c.whole {
			t.Fatalf("%d blocks: whole = %v, want %v", len(rd.blocks), rd.whole, c.whole)
		}
		cr.reads = 0
		held := func() {
			if !c.whole && len(rd.cache) > 1 {
				t.Fatalf("%d blocks: streaming reader holds %d decoded blocks", len(rd.blocks), len(rd.cache))
			}
		}
		for k := record.KindAccel; k <= record.KindBattery; k++ {
			it := rd.Iter(minT, maxT, k)
			for b := it.NextBatch(); b != nil; b = it.NextBatch() {
				held()
			}
		}
		it := rd.Times(minT, maxT)
		for b := it.NextBatch(); b != nil; b = it.NextBatch() {
			held()
		}
		rd.First()
		held()
		rd.Last()
		held()
		if c.whole && cr.reads != len(rd.blocks) {
			t.Fatalf("%d blocks: whole reader decoded %d blocks, want each once", len(rd.blocks), cr.reads)
		}
	}
}
