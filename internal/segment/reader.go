package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"

	"icares/internal/record"
)

// cacheBlocks is the most decoded blocks a reader keeps. A decoded block
// of DefaultBlockSize records holds ~330 KB (its kind-grouped columns, kind
// sequence and timestamps), ~620 KB once a whole-stream Iter has built its
// series-order array, so a full cache is ~20–38 MiB per badge — the whole
// point of the out-of-core path is that this, not the file size, bounds
// resident memory.
const cacheBlocks = 64

// Reader answers store queries out-of-core from one segment file: it keeps
// only the block index resident, seek-reads exactly the blocks a query
// overlaps, and caches decoded blocks by one rule taken from its index at
// open. A segment of at most cacheBlocks blocks is cached whole: every block
// it decodes stays for the reader's lifetime, so the report's one scan per
// kind decodes each block once and repeated queries stay allocation-free.
// A longer segment is streamed: the reader keeps only the last block it
// decoded. An LRU in between gains nothing on a report, whose scans each
// run longer than the cache, so every block is evicted before the next
// pass comes back to it. It satisfies the store.View read contract (Iter,
// Times, Len, First, Last) and is safe for concurrent readers.
//
// Salvage keeps every readable record: a segment whose index frame is
// lost or corrupt is recovered by a forward scan over the self-framed
// blocks (Skipped counts corrupt blocks dropped, Truncated reports a
// mid-frame tail), and a block that fails its CRC, decode, read, or index
// entry at query time is dropped for the reader's lifetime (reopen to
// retry a transient I/O error) and counted by CorruptBlocks.
//
// Len is lazily consistent with that query-time salvage: it subtracts the
// records of every block discovered corrupt so far, so after a full-window
// Iter has touched every block, Len equals the records it yielded even when
// blocks were damaged after the index was written.
type Reader struct {
	r      io.ReaderAt
	closer io.Closer
	size   int64

	badgeID uint16
	blocks  []blockMeta
	total   int

	skipped   int
	truncated bool

	// whole keeps every decoded block; otherwise cache holds only the last.
	whole bool

	mu    sync.Mutex
	cache map[int]*decodedBlock
	// dropped holds the indexes of blocks discovered corrupt at query time.
	// It outlives a streamed block's slot so a re-read of the same bad
	// block is never double-counted; droppedTotal mirrors it in record
	// units.
	dropped      map[int]struct{}
	droppedTotal int
}

// Open opens a segment file for out-of-core reads.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens a segment from any io.ReaderAt (a file, or bytes in
// tests and fuzzing). Only a missing or mangled header fails; a damaged
// index or damaged blocks salvage what is readable, reported via Skipped
// and Truncated.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	var head [headerSize]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	if [4]byte(head[0:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSegment)
	}
	if head[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSegment, head[4])
	}
	r := &Reader{
		r:       ra,
		size:    size,
		badgeID: binary.LittleEndian.Uint16(head[5:7]),
		cache:   make(map[int]*decodedBlock),
	}
	if err := r.loadIndex(); err != nil {
		r.salvageScan()
	}
	for _, m := range r.blocks {
		r.total += m.count
	}
	r.whole = len(r.blocks) <= cacheBlocks
	return r, nil
}

// loadIndex parses the tail-anchored index frame. Any inconsistency
// returns an error so the caller can fall back to the salvage scan.
func (r *Reader) loadIndex() error {
	if r.size < headerSize+tailSize {
		return ErrCorrupt
	}
	var tail [tailSize]byte
	if _, err := r.r.ReadAt(tail[:], r.size-tailSize); err != nil {
		return err
	}
	if [4]byte(tail[4:8]) != tailMagic {
		return ErrCorrupt
	}
	frameLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	frameStart := r.size - tailSize - frameLen
	if frameLen < 6 || frameStart < headerSize {
		return ErrCorrupt
	}
	frame := make([]byte, frameLen)
	if _, err := r.r.ReadAt(frame, frameStart); err != nil {
		return err
	}
	body, err := checkFrame(frame, tagIndex)
	if err != nil {
		return err
	}

	nBlocks, n := binary.Uvarint(body)
	if n <= 0 {
		return ErrCorrupt
	}
	body = body[n:]
	blocks := make([]blockMeta, 0, nBlocks)
	next := int64(headerSize)
	for b := uint64(0); b < nBlocks; b++ {
		var m blockMeta
		var fields [4]uint64
		for i := range fields {
			v, n := binary.Uvarint(body)
			if n <= 0 {
				return ErrCorrupt
			}
			fields[i] = v
			body = body[n:]
		}
		m.offset = int64(fields[0])
		m.length = int64(fields[1])
		m.count = int(fields[2])
		m.minLocal = time.Duration(unzigzag(fields[3]))
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return ErrCorrupt
		}
		m.maxLocal = time.Duration(unzigzag(v))
		body = body[n:]
		mask, n := binary.Uvarint(body)
		if n <= 0 {
			return ErrCorrupt
		}
		body = body[n:]
		// Exact-size allocation: with one index entry per block, append
		// growth slack across a 30-badge archive adds up to megabytes.
		m.counts = make([]kindCount, 0, bits.OnesCount64(mask))
		total := 0
		for k := 0; k < 64; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			c, n := binary.Uvarint(body)
			if n <= 0 {
				return ErrCorrupt
			}
			body = body[n:]
			m.counts = append(m.counts, kindCount{kind: record.Kind(k + 1), count: int32(c)})
			total += int(c)
		}
		// The index must describe a plausible, in-bounds, in-order block.
		if m.offset != next || m.length <= 0 || m.offset+m.length > frameStart ||
			m.count <= 0 || m.count > maxBlockRecords || total != m.count ||
			m.minLocal > m.maxLocal || (b > 0 && m.minLocal < blocks[b-1].maxLocal) {
			return ErrCorrupt
		}
		next = m.offset + m.length
		blocks = append(blocks, m)
	}
	if len(body) != 0 {
		return ErrCorrupt
	}
	r.blocks = blocks
	return nil
}

// checkFrame validates one tagged frame (tag, length, CRC) and returns its
// body.
func checkFrame(frame []byte, tag byte) ([]byte, error) {
	if len(frame) < 6 || frame[0] != tag {
		return nil, ErrCorrupt
	}
	blen, n := binary.Uvarint(frame[1:])
	if n <= 0 || int64(blen) > maxBlockBytes || 1+n+int(blen)+4 != len(frame) {
		return nil, ErrCorrupt
	}
	body := frame[1+n : 1+n+int(blen)]
	want := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrCorrupt
	}
	return body, nil
}

// salvageScan rebuilds the block index by a forward scan over the
// self-framed blocks — the path taken when the index frame is lost (a crash
// before Finish completed) or corrupted. Corrupt blocks are skipped and
// counted; an unparseable tail marks the segment truncated.
func (r *Reader) salvageScan() {
	r.blocks = nil
	br := bufio.NewReaderSize(io.NewSectionReader(r.r, headerSize, r.size-headerSize), 1<<16)
	off := int64(headerSize)
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return // clean end (or empty tail): nothing after the last block
		}
		if tag == tagIndex {
			return // blocks ended; only the index/tail was damaged
		}
		if tag != tagBlock {
			r.truncated = true
			return
		}
		blen, err := binary.ReadUvarint(br)
		if err != nil {
			r.truncated = true
			return
		}
		if blen > maxBlockBytes {
			// Cannot resync after a corrupted length; treat as end.
			r.skipped++
			r.truncated = true
			return
		}
		frameLen := int64(1+uvarintLen(blen)) + int64(blen) + 4
		buf := make([]byte, blen+4)
		if _, err := io.ReadFull(br, buf); err != nil {
			r.truncated = true
			return
		}
		body := buf[:blen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[blen:]) {
			r.skipped++
			off += frameLen
			continue
		}
		blk, err := decodeBlockBody(body)
		// A block older than its predecessor is a stray copy: Iter's window
		// search needs blocks in time order.
		if err != nil || len(blk.times) == 0 ||
			(len(r.blocks) > 0 && blk.times[0] < r.blocks[len(r.blocks)-1].maxLocal) {
			r.skipped++
			off += frameLen
			continue
		}
		counts := make([]kindCount, len(blk.spans))
		for i, sp := range blk.spans {
			counts[i] = kindCount{kind: sp.kind, count: sp.hi - sp.lo}
		}
		r.blocks = append(r.blocks, blockMeta{
			offset:   off,
			length:   frameLen,
			count:    len(blk.times),
			minLocal: blk.times[0],
			maxLocal: blk.times[len(blk.times)-1],
			counts:   counts,
		})
		off += frameLen
	}
}

// uvarintLen returns the number of bytes PutUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Close releases the underlying file, if the reader owns one.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// BadgeID returns the badge this segment belongs to.
func (r *Reader) BadgeID() uint16 { return r.badgeID }

// Len returns the number of readable records: the index total minus the
// records of blocks discovered corrupt at query time, so it agrees with a
// full-window Iter's yield once every block has been touched.
func (r *Reader) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - r.droppedTotal
}

// BytesOnDisk returns the segment file size — the figure to hold against
// the in-memory store's EncodedBytes for the compression ratio.
func (r *Reader) BytesOnDisk() int64 { return r.size }

// Skipped returns how many corrupt blocks the salvage scan dropped.
func (r *Reader) Skipped() int { return r.skipped }

// Truncated reports whether the segment ended mid-frame during salvage —
// the process died while a block was being written.
func (r *Reader) Truncated() bool { return r.truncated }

// CorruptBlocks returns how many distinct blocks failed their CRC, decode,
// read, or index entry at query time; their records are lost to views (and
// subtracted from Len), mirroring load salvage.
func (r *Reader) CorruptBlocks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.dropped))
}

// block returns the decoded block i, from cache or by one seek+read. A
// block that fails its CRC, decode, read, or index entry is cached as
// corrupt so it is not re-read on every query, and its records are
// subtracted from Len exactly once (the dropped set outlives a streamed
// block's slot).
func (r *Reader) block(i int) *decodedBlock {
	r.mu.Lock()
	blk, ok := r.cache[i]
	r.mu.Unlock()
	if ok {
		return blk
	}

	m := &r.blocks[i]
	frame := make([]byte, m.length)
	blk = new(decodedBlock)
	if _, err := r.r.ReadAt(frame, m.offset); err != nil {
		blk.corrupt = true
	} else if body, err := checkFrame(frame, tagBlock); err != nil {
		blk.corrupt = true
	} else if decoded, err := decodeBlockBody(body); err != nil || !m.describes(decoded) {
		blk.corrupt = true
	} else {
		blk = decoded
	}

	r.mu.Lock()
	if cached, ok := r.cache[i]; ok { // raced with another reader; keep theirs
		blk = cached
	} else {
		if blk.corrupt {
			if _, seen := r.dropped[i]; !seen {
				if r.dropped == nil {
					r.dropped = make(map[int]struct{})
				}
				r.dropped[i] = struct{}{}
				r.droppedTotal += m.count
			}
		}
		if !r.whole {
			clear(r.cache)
		}
		r.cache[i] = blk
	}
	r.mu.Unlock()
	return blk
}

// rangeBlocks returns the half-open block span [lo, hi) whose time ranges
// overlap [from, to), empty for inverted or empty windows.
func (r *Reader) rangeBlocks(from, to time.Duration) (int, int) {
	if from >= to {
		return 0, 0
	}
	lo := sort.Search(len(r.blocks), func(i int) bool { return r.blocks[i].maxLocal >= from })
	hi := lo
	for hi < len(r.blocks) && r.blocks[hi].minLocal < to {
		hi++
	}
	return lo, hi
}

// sliceRange returns the [from, to) sub-slice of a time-sorted record
// slice — the same two binary searches store.Series uses, clamped so
// inverted windows are empty.
func sliceRange(recs []record.Record, from, to time.Duration) []record.Record {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= to })
	if hi < lo {
		hi = lo
	}
	return recs[lo:hi]
}

// sliceTimes is sliceRange over a sorted timestamp slice.
func sliceTimes(ts []time.Duration, from, to time.Duration) []time.Duration {
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] >= to })
	if hi < lo {
		hi = lo
	}
	return ts[lo:hi]
}

// First returns the earliest record, if any.
func (r *Reader) First() (record.Record, bool) {
	for i := range r.blocks {
		if blk := r.block(i); !blk.corrupt {
			return blk.first(), true
		}
	}
	return record.Record{}, false
}

// Last returns the latest record, if any.
func (r *Reader) Last() (record.Record, bool) {
	for i := len(r.blocks) - 1; i >= 0; i-- {
		if blk := r.block(i); !blk.corrupt {
			return blk.last(), true
		}
	}
	return record.Record{}, false
}

// Iter returns a streaming cursor over the records in [from, to),
// optionally restricted to one kind (k == 0 iterates every kind). It
// touches only the blocks the query needs, one at a time — the record
// stream a store.View exposes without ever materializing it; stepping
// through a cached block allocates nothing. A kind scan reads the block's
// kind-grouped columns in place; only a whole-stream scan (k == 0) makes a
// block build its series-order record array.
func (r *Reader) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	lo, hi := r.rangeBlocks(from, to)
	next := lo
	return record.PullCursor(func() []record.Record {
		for next < hi {
			i := next
			next++
			if k != 0 && r.blocks[i].kindCount(k) == 0 {
				continue
			}
			blk := r.block(i)
			if blk.corrupt {
				continue
			}
			var recs []record.Record
			if k == 0 {
				recs = blk.series()
			} else {
				recs = blk.kind(k)
			}
			if recs = sliceRange(recs, from, to); len(recs) > 0 {
				return recs
			}
		}
		return nil
	})
}

// Times returns the Local of every record in [from, to), in series order —
// the timestamp-only projection of Iter(from, to, 0). Each batch is a
// zero-copy sub-slice of a cached block's timestamps, so no record is
// built; corrupt blocks are skipped exactly as Iter skips them. Batches are
// shared with the cache: callers must not write into them.
func (r *Reader) Times(from, to time.Duration) record.TimeCursor {
	lo, hi := r.rangeBlocks(from, to)
	next := lo
	return record.PullTimeCursor(func() []time.Duration {
		for next < hi {
			blk := r.block(next)
			next++
			if blk.corrupt {
				continue
			}
			if ts := sliceTimes(blk.times, from, to); len(ts) > 0 {
				return ts
			}
		}
		return nil
	})
}
