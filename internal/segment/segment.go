// Package segment implements the persistent, compressed, immutable segment
// files the store spills missions to — the on-disk continuation of the
// sorted-run layout in internal/store. The real ICAres-1 deployment wrote
// ~150 GiB of raw SD data; a memory-resident store stops scaling at RAM, so
// a segment file re-encodes one badge's time-ordered series into per-kind
// column blocks that an out-of-core reader (see Reader) can fetch and decode
// individually: queries seek to exactly the blocks they need.
//
// File layout:
//
//	[4]byte  magic "ISG1"
//	uint8    format version (1)
//	uint16   badge ID, little-endian
//	blocks   ...
//	index    one index frame describing every block
//	uint32   index frame length, little-endian
//	[4]byte  tail magic "ISGE"
//
// Each block frame is self-delimiting, so a file whose index was lost or
// corrupted can still be salvaged by a forward scan:
//
//	byte     block tag (0xB1)
//	uvarint  body length
//	body     see below
//	uint32   CRC-32 (IEEE) of the body, little-endian
//
// A block holds up to BlockSize consecutive records of the global
// time-ordered series, stored columnar by kind:
//
//	uvarint  record count
//	[count]byte  kind sequence — the kind of each record in series order,
//	             which is what lets the reader reconstruct the exact
//	             interleaving (ties across kinds keep append order)
//	for each kind present, ascending:
//	  uvarint  section length
//	  section:
//	    uvarint     timestamp scale — the GCD of the first timestamp and
//	                every delta in the section. Badges sample on a fixed
//	                tick, so raw nanosecond deltas (5×10⁹ for a 5 s tick)
//	                would cost five varint bytes each; dividing by the GCD
//	                collapses them to tick counts first
//	    timestamps  zigzag-varint first Local (scaled), then delta-of-delta
//	                zigzag-varints — on a regular tick the second derivative
//	                is almost always 0 and costs one byte
//	    bodies      KindAccel: per-axis zigzag-delta varint columns;
//	                KindBeacon/KindNeighbor: zigzag-delta peer-ID column
//	                (receivers sweep peers in a stable order) then an
//	                XOR-varint RSSI column; KindIR: zigzag-delta peer-ID
//	                column; KindMic: SpeechDetected bitset then XOR-varint
//	                columns for loudness, fundamental, and speech fraction;
//	                KindEnv: XOR-varint columns for temp, pressure, light;
//	                KindBattery: XOR-varint percentage column; all other
//	                kinds: concatenated record.AppendBody encodings.
//	                An XOR-varint float column stores each float32's bits
//	                XORed with the previous value's bits as a uvarint —
//	                repeated or zero values cost one byte
//
// The index frame uses the same tag/length/CRC framing with tag 0xF1; its
// body lists per block: file offset, frame length, record count, min/max
// Local, a kind bitmask, and per-kind record counts — the on-disk analog of
// the store's per-kind posting indexes, letting per-kind and windowed Iter
// scans prune whole blocks without touching them.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"icares/internal/record"
)

// Format constants.
const (
	// Version is the current segment format version.
	Version = 1
	// DefaultBlockSize is the default number of records per block.
	DefaultBlockSize = 4096
	// maxBlockRecords bounds a block's declared record count; anything
	// larger is corrupt.
	maxBlockRecords = 1 << 16
	// maxBlockBytes bounds a block frame; a declared length beyond it is
	// corrupt (and unskippable, like an oversized record frame).
	maxBlockBytes = 1 << 22

	tagBlock = 0xB1
	tagIndex = 0xF1

	headerSize = 7 // magic + version + badge ID
	tailSize   = 8 // index frame length + tail magic
)

var (
	segMagic  = [4]byte{'I', 'S', 'G', '1'}
	tailMagic = [4]byte{'I', 'S', 'G', 'E'}
)

// Errors returned by the segment codec.
var (
	// ErrBadSegment is returned when a file is not a segment at all
	// (missing or mangled header).
	ErrBadSegment = errors.New("segment: bad segment header")
	// ErrCorrupt marks a corrupt block or index frame.
	ErrCorrupt = errors.New("segment: corrupt")
	// ErrOutOfOrder is returned by Writer.Append when records arrive out of
	// time order; segments are written from an already-sorted series view.
	ErrOutOfOrder = errors.New("segment: out-of-order append")
)

// kindCount is one per-kind record count inside a block. Kept packed
// (8 bytes) deliberately: a fleet-scale archive holds one index entry per
// block per badge, so this struct is the dominant resident cost of an open
// reader. int32 is ample — a block holds at most maxBlockRecords records.
type kindCount struct {
	kind  record.Kind
	count int32
}

// blockMeta is one index entry: where a block lives and what it holds.
type blockMeta struct {
	offset   int64 // file offset of the block frame's tag byte
	length   int64 // whole frame: tag + length varint + body + CRC
	count    int
	minLocal time.Duration
	maxLocal time.Duration
	counts   []kindCount // ascending by kind
}

// describes reports whether blk is the block this entry indexes. A frame
// copied over another in the file still passes its CRC, but Iter prunes by
// the index, so a block that contradicts its entry is read as corrupt.
func (m *blockMeta) describes(blk *decodedBlock) bool {
	n := len(blk.times)
	ok := n == m.count && blk.times[0] == m.minLocal && blk.times[n-1] == m.maxLocal &&
		len(blk.spans) == len(m.counts)
	for i := 0; ok && i < len(m.counts); i++ {
		sp, kc := blk.spans[i], m.counts[i]
		ok = sp.kind == kc.kind && sp.hi-sp.lo == kc.count
	}
	return ok
}

func (m *blockMeta) kindCount(k record.Kind) int {
	for _, kc := range m.counts {
		if kc.kind == k {
			return int(kc.count)
		}
		if kc.kind > k {
			break
		}
	}
	return 0
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// appendZigzag appends v zigzag-encoded as a uvarint, so small negative
// values (backwards delta-of-delta steps) stay small on disk.
func appendZigzag(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// Writer streams one badge's time-ordered records into a segment file.
// Records must arrive in non-decreasing Local order — the writer's input is
// a sorted series view, and the block index depends on it. Close the
// segment with Finish, which writes the index frame and tail.
type Writer struct {
	w       io.Writer
	badgeID uint16
	block   int // records per block

	pending []record.Record
	metas   []blockMeta
	off     int64
	last    time.Duration
	total   int
	scratch []byte
	err     error
}

// NewWriter writes the segment header and returns a writer for the badge's
// records. blockSize is the number of records per block; <= 0 selects
// DefaultBlockSize, and values beyond the format bound are clamped.
func NewWriter(w io.Writer, badgeID uint16, blockSize int) (*Writer, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxBlockRecords {
		blockSize = maxBlockRecords
	}
	var head [headerSize]byte
	copy(head[:4], segMagic[:])
	head[4] = Version
	binary.LittleEndian.PutUint16(head[5:7], badgeID)
	if _, err := w.Write(head[:]); err != nil {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	return &Writer{w: w, badgeID: badgeID, block: blockSize, off: headerSize}, nil
}

// Append adds one record to the segment. Records must be appended in
// non-decreasing timestamp order.
func (sw *Writer) Append(r record.Record) error {
	if sw.err != nil {
		return sw.err
	}
	if _, err := record.EncodedSize(r); err != nil {
		return err // unknown kind: reject before it poisons a block
	}
	if sw.total > 0 && r.Local < sw.last {
		return ErrOutOfOrder
	}
	sw.last = r.Local
	sw.total++
	sw.pending = append(sw.pending, r)
	if len(sw.pending) >= sw.block {
		return sw.flushBlock()
	}
	return nil
}

// flushBlock encodes and writes the pending records as one block frame.
func (sw *Writer) flushBlock() error {
	if sw.err != nil {
		return sw.err
	}
	if len(sw.pending) == 0 {
		return nil
	}
	body, counts, err := appendBlockBody(sw.scratch[:0], sw.pending)
	if err != nil {
		sw.err = err
		return err
	}
	sw.scratch = body[:0]
	n, err := sw.writeFrame(tagBlock, body)
	if err != nil {
		sw.err = err
		return err
	}
	sw.metas = append(sw.metas, blockMeta{
		offset:   sw.off,
		length:   int64(n),
		count:    len(sw.pending),
		minLocal: sw.pending[0].Local,
		maxLocal: sw.pending[len(sw.pending)-1].Local,
		counts:   counts,
	})
	sw.off += int64(n)
	sw.pending = sw.pending[:0]
	return nil
}

// writeFrame writes one tagged, length-prefixed, CRC-trailed frame and
// returns its total size.
func (sw *Writer) writeFrame(tag byte, body []byte) (int, error) {
	head := make([]byte, 0, 1+binary.MaxVarintLen64)
	head = append(head, tag)
	head = appendUvarint(head, uint64(len(body)))
	if _, err := sw.w.Write(head); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	if _, err := sw.w.Write(body); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	if _, err := sw.w.Write(tail[:]); err != nil {
		return 0, fmt.Errorf("segment frame: %w", err)
	}
	return len(head) + len(body) + 4, nil
}

// Finish flushes the last partial block and writes the index frame and
// tail. The writer must not be used afterwards.
func (sw *Writer) Finish() error {
	if err := sw.flushBlock(); err != nil {
		return err
	}
	idx := sw.scratch[:0]
	idx = appendUvarint(idx, uint64(len(sw.metas)))
	for _, m := range sw.metas {
		idx = appendUvarint(idx, uint64(m.offset))
		idx = appendUvarint(idx, uint64(m.length))
		idx = appendUvarint(idx, uint64(m.count))
		idx = appendZigzag(idx, int64(m.minLocal))
		idx = appendZigzag(idx, int64(m.maxLocal))
		var mask uint64
		for _, kc := range m.counts {
			mask |= 1 << (uint(kc.kind) - 1)
		}
		idx = appendUvarint(idx, mask)
		for _, kc := range m.counts {
			idx = appendUvarint(idx, uint64(kc.count))
		}
	}
	n, err := sw.writeFrame(tagIndex, idx)
	if err != nil {
		sw.err = err
		return err
	}
	sw.off += int64(n)
	var tail [tailSize]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(n))
	copy(tail[4:], tailMagic[:])
	if _, err := sw.w.Write(tail[:]); err != nil {
		sw.err = err
		return fmt.Errorf("segment tail: %w", err)
	}
	sw.off += tailSize
	sw.err = errors.New("segment: writer finished")
	return nil
}

// appendBlockBody encodes recs (a contiguous, time-ordered chunk of the
// series) as one block body, returning the per-kind counts for the index.
func appendBlockBody(dst []byte, recs []record.Record) ([]byte, []kindCount, error) {
	dst = appendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Kind))
	}
	kinds := presentKinds(recs)
	counts := make([]kindCount, 0, len(kinds))
	var section []byte
	for _, k := range kinds {
		section = section[:0]
		// Timestamp column: scale, first Local, then delta-of-delta (all in
		// scale units).
		scale := tsScale(recs, k)
		section = appendUvarint(section, uint64(scale))
		n := 0
		var prev, prevDelta int64
		for _, r := range recs {
			if r.Kind != k {
				continue
			}
			t := int64(r.Local) / scale
			if n == 0 {
				section = appendZigzag(section, t)
			} else {
				delta := t - prev
				section = appendZigzag(section, delta-prevDelta)
				prevDelta = delta
			}
			prev = t
			n++
		}
		// Body column.
		var err error
		if section, err = appendBodyColumn(section, k, recs); err != nil {
			return dst, nil, err
		}
		counts = append(counts, kindCount{kind: k, count: int32(n)})
		dst = appendUvarint(dst, uint64(len(section)))
		dst = append(dst, section...)
	}
	return dst, counts, nil
}

// tsScale returns the largest unit that exactly divides every timestamp of
// kind k in recs — the GCD of the first timestamp and all deltas. Records
// sampled on a fixed tick land on multiples of the tick, so this turns
// five-byte nanosecond deltas into one-byte tick counts.
func tsScale(recs []record.Record, k record.Kind) int64 {
	var g, prev int64
	n := 0
	for _, r := range recs {
		if r.Kind != k {
			continue
		}
		v := int64(r.Local)
		if n == 0 {
			g = gcd64(g, v)
		} else {
			g = gcd64(g, v-prev)
		}
		prev = v
		n++
		if g == 1 {
			break
		}
	}
	if g <= 0 {
		return 1
	}
	return g
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// appendBodyColumn appends the body column of one kind. Columns with
// exploitable structure get their own encodings: accelerometer axes and
// peer IDs as zigzag-delta varint columns (consecutive samples are close;
// receivers sweep peers in a stable order), float payloads as XOR columns
// of their bits, read through record.Record.Word, every other kind as
// concatenated record.AppendBody encodings.
func appendBodyColumn(dst []byte, k record.Kind, recs []record.Record) ([]byte, error) {
	switch k {
	case record.KindAccel:
		for axis := 0; axis < 3; axis++ {
			var prev int64
			for i := range recs {
				if recs[i].Kind != k {
					continue
				}
				v := int64(int16(*recs[i].Word(axis)))
				dst = appendZigzag(dst, v-prev)
				prev = v
			}
		}
		return dst, nil
	case record.KindBeacon, record.KindNeighbor, record.KindIR:
		var prev int64
		for _, r := range recs {
			if r.Kind != k {
				continue
			}
			dst = appendZigzag(dst, int64(r.PeerID)-prev)
			prev = int64(r.PeerID)
		}
		if k != record.KindIR {
			dst = appendF32Columns(dst, k, recs, 1)
		}
		return dst, nil
	case record.KindMic:
		// SpeechDetected as a bitset, then the three feature columns.
		var bits, nbits byte
		for i := range recs {
			if recs[i].Kind != k {
				continue
			}
			if speech, _, _, _ := recs[i].Mic(); speech {
				bits |= 1 << nbits
			}
			if nbits++; nbits == 8 {
				dst = append(dst, bits)
				bits, nbits = 0, 0
			}
		}
		if nbits > 0 {
			dst = append(dst, bits)
		}
		return appendF32Columns(dst, k, recs, 3), nil
	case record.KindEnv:
		return appendF32Columns(dst, k, recs, 3), nil
	case record.KindBattery:
		return appendF32Columns(dst, k, recs, 1), nil
	}
	var err error
	for _, r := range recs {
		if r.Kind != k {
			continue
		}
		if dst, err = record.AppendBody(dst, r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendF32Columns appends the float32 columns in payload words 0 to n-1,
// one column after another, each as uvarints of every value's bits XORed
// with the previous value's bits: repeated or zero values cost one byte,
// and slowly drifting sensor floats share sign/exponent/high mantissa bits
// so the XOR stays small.
func appendF32Columns(dst []byte, k record.Kind, recs []record.Record, n int) []byte {
	for w := 0; w < n; w++ {
		var prev uint32
		for i := range recs {
			if recs[i].Kind != k {
				continue
			}
			u := *recs[i].Word(w)
			dst = appendUvarint(dst, uint64(u^prev))
			prev = u
		}
	}
	return dst
}

// decodeF32Columns decodes n columns written by appendF32Columns into
// payload words 0 to n-1 of out, returning the remaining section bytes.
func decodeF32Columns(section []byte, out []record.Record, n int) ([]byte, error) {
	for w := 0; w < n; w++ {
		var prev uint32
		for i := range out {
			u, m := binary.Uvarint(section)
			if m <= 0 || u > 0xFFFFFFFF {
				return nil, ErrCorrupt
			}
			section = section[m:]
			prev ^= uint32(u)
			*out[i].Word(w) = prev
		}
	}
	return section, nil
}

// presentKinds returns the distinct kinds in recs, ascending.
func presentKinds(recs []record.Record) []record.Kind {
	var seen [256]bool
	for _, r := range recs {
		seen[r.Kind] = true
	}
	var out []record.Kind
	for k := 0; k < 256; k++ {
		if seen[k] {
			out = append(out, record.Kind(k))
		}
	}
	return out
}

// decodedBlock is one decoded block, built once and cached by the reader.
// Every section decodes into one kind-grouped column array: cols holds each
// kind's records in time order, kinds ascending, and spans says where each
// kind's run lies. The series order lives beside it as the kind sequence
// and the Local of each record (times, 8 bytes a record), which is all a
// timestamp scan or an index check reads. The series-order record array
// that a whole-stream Iter yields is built from these on first use only.
type decodedBlock struct {
	cols  []record.Record
	spans []kindSpan // ascending by kind, each run non-empty
	seq   []byte     // the kind of each record, in series order
	times []time.Duration

	recsOnce sync.Once
	recs     []record.Record // series order; see series
	// corrupt marks a block whose CRC or decode failed at read time; its
	// records are lost (salvage semantics) and the reader counts it.
	corrupt bool
}

// kindSpan is one kind's run of a block's cols: cols[lo:hi].
type kindSpan struct {
	kind   record.Kind
	lo, hi int32
}

// kind returns the block's records of kind k in time order, zero-copy.
func (b *decodedBlock) kind(k record.Kind) []record.Record {
	for _, sp := range b.spans {
		if sp.kind == k {
			return b.cols[sp.lo:sp.hi]
		}
		if sp.kind > k {
			break
		}
	}
	return nil
}

// first and last return the block's end records without building the
// series array: the series starts with the first record of seq[0]'s run
// and ends with the last record of seq[n-1]'s run.
func (b *decodedBlock) first() record.Record { return b.kind(record.Kind(b.seq[0]))[0] }

func (b *decodedBlock) last() record.Record {
	col := b.kind(record.Kind(b.seq[len(b.seq)-1]))
	return col[len(col)-1]
}

// series returns the records in series order, interleaving the kind runs
// by the kind sequence on the first call (safe under concurrent readers).
func (b *decodedBlock) series() []record.Record {
	b.recsOnce.Do(func() {
		next := b.runStarts()
		recs := make([]record.Record, len(b.seq))
		for i, kb := range b.seq {
			recs[i] = b.cols[next[kb]]
			next[kb]++
		}
		b.recs = recs
	})
	return b.recs
}

// runStarts returns, per kind, where its run starts in cols: the cursor
// from which the series order consumes each run front to back (ties across
// kinds keep append order, so each run is in series order already).
func (b *decodedBlock) runStarts() (next [256]int32) {
	for _, sp := range b.spans {
		next[sp.kind] = sp.lo
	}
	return next
}

// decodeBlockBody decodes one block body.
func decodeBlockBody(body []byte) (*decodedBlock, error) {
	count, n := binary.Uvarint(body)
	if n <= 0 || count > maxBlockRecords {
		return nil, ErrCorrupt
	}
	body = body[n:]
	if uint64(len(body)) < count {
		return nil, ErrCorrupt
	}
	// Copied so the cached block does not pin the frame buffer.
	seq := append([]byte(nil), body[:count]...)
	body = body[count:]

	// Per-kind counts from the kind sequence.
	var perKind [256]int32
	kinds := 0
	for _, kb := range seq {
		if perKind[kb] == 0 {
			kinds++
		}
		perKind[kb]++
	}

	blk := &decodedBlock{cols: make([]record.Record, count), spans: make([]kindSpan, 0, kinds), seq: seq}
	var lo int32
	for k := 0; k < 256; k++ {
		nk := perKind[k]
		if nk == 0 {
			continue
		}
		slen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < slen {
			return nil, ErrCorrupt
		}
		section := body[n : n+int(slen)]
		body = body[n+int(slen):]
		if err := decodeSection(record.Kind(k), blk.cols[lo:lo+nk], section); err != nil {
			return nil, err
		}
		blk.spans = append(blk.spans, kindSpan{kind: record.Kind(k), lo: lo, hi: lo + nk})
		lo += nk
	}
	if len(body) != 0 {
		return nil, ErrCorrupt
	}

	// Series-order timestamps from the kind sequence.
	next := blk.runStarts()
	blk.times = make([]time.Duration, count)
	for i, kb := range seq {
		blk.times[i] = blk.cols[next[kb]].Local
		next[kb]++
	}
	return blk, nil
}

// decodeSection decodes one kind's section (timestamp column + body column)
// into out, one record per element.
func decodeSection(k record.Kind, out []record.Record, section []byte) error {
	nk := len(out)
	// Timestamps: scale, then first value and delta-of-delta in scale units.
	su, n := binary.Uvarint(section)
	if n <= 0 || su == 0 || su > uint64(1)<<62 {
		return ErrCorrupt
	}
	section = section[n:]
	scale := int64(su)
	var prev, prevDelta int64
	for i := 0; i < nk; i++ {
		u, n := binary.Uvarint(section)
		if n <= 0 {
			return ErrCorrupt
		}
		section = section[n:]
		v := unzigzag(u)
		if i == 0 {
			prev = v
		} else {
			prevDelta += v
			prev += prevDelta
		}
		out[i].Kind = k
		out[i].Local = time.Duration(prev * scale)
	}
	// Bodies.
	switch k {
	case record.KindAccel:
		for axis := 0; axis < 3; axis++ {
			var prevV int64
			for i := 0; i < nk; i++ {
				u, n := binary.Uvarint(section)
				if n <= 0 {
					return ErrCorrupt
				}
				section = section[n:]
				prevV += unzigzag(u)
				if prevV < -32768 || prevV > 32767 {
					return ErrCorrupt
				}
				*out[i].Word(axis) = uint32(uint16(prevV))
			}
		}
	case record.KindBeacon, record.KindNeighbor, record.KindIR:
		var prevP int64
		for i := 0; i < nk; i++ {
			u, n := binary.Uvarint(section)
			if n <= 0 {
				return ErrCorrupt
			}
			section = section[n:]
			prevP += unzigzag(u)
			if prevP < 0 || prevP > 65535 {
				return ErrCorrupt
			}
			out[i].PeerID = uint16(prevP)
		}
		if k != record.KindIR {
			var err error
			if section, err = decodeF32Columns(section, out, 1); err != nil {
				return err
			}
		}
	case record.KindMic:
		nbytes := (nk + 7) / 8
		if len(section) < nbytes {
			return ErrCorrupt
		}
		for i := 0; i < nk; i++ {
			out[i] = record.NewMic(out[i].Local, section[i/8]&(1<<(i%8)) != 0, 0, 0, 0)
		}
		var err error
		if section, err = decodeF32Columns(section[nbytes:], out, 3); err != nil {
			return err
		}
	case record.KindEnv:
		var err error
		if section, err = decodeF32Columns(section, out, 3); err != nil {
			return err
		}
	case record.KindBattery:
		var err error
		if section, err = decodeF32Columns(section, out, 1); err != nil {
			return err
		}
	default:
		for i := 0; i < nk; i++ {
			used, err := record.DecodeBody(&out[i], section)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			section = section[used:]
		}
	}
	if len(section) != 0 {
		return ErrCorrupt
	}
	return nil
}
