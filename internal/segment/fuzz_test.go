package segment

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// FuzzReader drives the out-of-core read path (index parse, salvage scan,
// block decode, Iter) with valid, truncated, bit-flipped and frame-shuffled
// segments and a window [from, to) from the fuzz input. Nothing panics,
// errors stay in the ErrBadSegment/ErrCorrupt family, and whatever opens
// answers every Iter like a filter over its readable blocks decoded
// in-package, batch by batch in time order, inside the window and of the
// queried kind; Times yields exactly the timestamps of the full-kind
// filter; the per-kind scans sum to the full scan, and Len counts the
// readable records. The reference interleaves each
// block's decoded kind columns by its kind sequence directly, so it does
// not rest on the lazily built series array under test. Iter windows are half-open, so a
// record stamped math.MaxInt64 (the format can hold one) is in no window,
// not even the full scan's, yet counts for Len.
func FuzzReader(f *testing.F) {
	rng := stats.NewRNG(99)
	mid := [2]int64{int64(10 * time.Second), int64(5 * time.Minute)}
	for _, n := range []int{0, 5, 120} {
		for _, bs := range []int{4, 64} {
			raw := writeFuzzSeed(f, n, bs, rng)
			f.Add(append([]byte{}, raw...), mid[0], mid[1])
			if len(raw) > 10 {
				f.Add(append([]byte{}, raw[:len(raw)*2/3]...), mid[0], mid[1]) // truncated mid-stream
				flipped := append([]byte{}, raw...)
				flipped[len(flipped)/2] ^= 0x04 // bit rot mid-file
				f.Add(flipped, mid[1], mid[0])  // inverted window
				flipped2 := append([]byte{}, raw...)
				flipped2[len(flipped2)-3] ^= 0x80 // damaged tail
				f.Add(flipped2, int64(math.MinInt64), int64(math.MaxInt64))
			}
		}
	}
	f.Add([]byte{}, int64(0), int64(0))
	f.Add([]byte("ISG1"), int64(0), int64(1))
	f.Add([]byte("ISG1\x01\x05\x00\xb1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), int64(-1), int64(1)) // huge block length
	// Frames that pass their CRC in the wrong place: block 2 copied over
	// the equal-length block 1 under an intact index, and block 2 repeated
	// after itself with the index lost.
	var ticks []record.Record
	for i := 0; i < 40; i++ {
		ticks = append(ticks, record.NewIR(time.Duration(i)*time.Second, 1))
	}
	raw := writeSegment(f, 1, 4, ticks)
	blocks := openBytes(f, raw).blocks
	b1, b2 := blocks[1], blocks[2]
	frame2 := raw[b2.offset : b2.offset+b2.length]
	f.Add(append(append(append([]byte{}, raw[:b1.offset]...), frame2...), raw[b2.offset:]...), mid[0], mid[1])
	f.Add(append(append(append([]byte{}, raw[:b2.offset]...), frame2...), raw[b2.offset:len(raw)-2]...), mid[0], mid[1])

	f.Fuzz(func(t *testing.T, data []byte, from, to int64) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		defer rd.Close()

		var readable []record.Record
		stored := make(map[record.Kind]int)
		for i := range rd.blocks {
			if blk := rd.block(i); !blk.corrupt {
				var used [256]int
				for _, kb := range blk.seq {
					readable = append(readable, blk.kind(record.Kind(kb))[used[kb]])
					used[kb]++
				}
			}
		}
		for _, r := range readable {
			stored[r.Kind]++
		}
		want := func(from, to time.Duration, k record.Kind) []record.Record {
			var out []record.Record
			for _, r := range readable {
				if r.Local >= from && r.Local < to && (k == 0 || r.Kind == k) {
					out = append(out, r)
				}
			}
			return out
		}
		if rd.Len() != len(readable) {
			t.Fatalf("Len() = %d, readable blocks hold %d", rd.Len(), len(readable))
		}
		perKind := 0
		for k := record.Kind(0); k <= record.KindBattery; k++ {
			for _, w := range [][2]time.Duration{{minT, maxT}, {time.Duration(from), time.Duration(to)}} {
				if got, exp := scan(t, rd, w[0], w[1], k), want(w[0], w[1], k); !sameRecords(got, exp) {
					t.Fatalf("Iter(%v, %v, %v) = %d records, want %d", w[0], w[1], k, len(got), len(exp))
				}
				if k != 0 {
					continue
				}
				if got, exp := scanTimes(t, rd, w[0], w[1]), locals(want(w[0], w[1], 0)); !sameTimes(got, exp) {
					t.Fatalf("Times(%v, %v) = %d timestamps, want %d", w[0], w[1], len(got), len(exp))
				}
			}
			if k == 0 {
				continue
			}
			perKind += len(want(minT, maxT, k))
		}
		if perKind != len(want(minT, maxT, 0)) {
			t.Fatalf("kind scans hold %d records, full scan %d", perKind, len(want(minT, maxT, 0)))
		}
	})
}

// writeFuzzSeed builds a valid segment for the corpus.
func writeFuzzSeed(f *testing.F, n, blockSize int, rng *stats.RNG) []byte {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, 7, blockSize)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range randRecords(rng, n) {
		if err := sw.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
