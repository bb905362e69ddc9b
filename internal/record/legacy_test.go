package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestRecordLayout pins Record at 24 bytes, so a field that widens it
// fails here instead of silently regrowing every resident series, decoded
// block and live buffer. The layout:
//
//	bytes  0–7   Local   time.Duration
//	byte   8     Kind
//	byte   9     flags   (bit 0 SpeechDetected, bit 1 Worn)
//	bytes 10–11  PeerID  uint16
//	bytes 12–15  word 0  (accel X, mic loudness, RSSI, env temperature,
//	                      battery, RefTime low half)
//	bytes 16–19  word 1  (accel Y, mic fundamental, env pressure,
//	                      RefTime high half)
//	bytes 20–23  word 2  (accel Z, mic speech fraction, env light)
func TestRecordLayout(t *testing.T) {
	var r Record
	if got := unsafe.Sizeof(r); got != 24 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 24", got)
	}
	for _, f := range []struct {
		name      string
		off, want uintptr
	}{
		{"Local", unsafe.Offsetof(r.Local), 0},
		{"Kind", unsafe.Offsetof(r.Kind), 8},
		{"flags", unsafe.Offsetof(r.flags), 9},
		{"PeerID", unsafe.Offsetof(r.PeerID), 10},
		{"w", unsafe.Offsetof(r.w), 12},
	} {
		if f.off != f.want {
			t.Errorf("offset of %s = %d, want %d", f.name, f.off, f.want)
		}
	}
}

// legacyRecord is a verbatim copy of the wide 72-byte Record this package
// held before the compact layout, one field per payload. With its codec
// below it is the reference the compact record is checked against: both
// must encode every record to the same frame bytes, NaN payloads included.
type legacyRecord struct {
	Local time.Duration
	Kind  Kind

	AX, AY, AZ int16

	SpeechDetected bool
	LoudnessDB     float32
	FundamentalHz  float32
	SpeechFraction float32

	PeerID uint16
	RSSI   float32

	TempC    float32
	PressHPa float32
	LightLux float32

	Worn bool

	RefTime time.Duration

	BatteryPct float32
}

func legacyAppendF32(b []byte, v float32) []byte {
	u := math.Float32bits(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func legacyAppendI16(b []byte, v int16) []byte {
	return appendU16(b, uint16(v))
}

func legacyAppendBody(dst []byte, r legacyRecord) ([]byte, error) {
	switch r.Kind {
	case KindAccel:
		dst = legacyAppendI16(dst, r.AX)
		dst = legacyAppendI16(dst, r.AY)
		dst = legacyAppendI16(dst, r.AZ)
	case KindMic:
		var flag byte
		if r.SpeechDetected {
			flag = 1
		}
		dst = append(dst, flag)
		dst = legacyAppendF32(dst, r.LoudnessDB)
		dst = legacyAppendF32(dst, r.FundamentalHz)
		dst = legacyAppendF32(dst, r.SpeechFraction)
	case KindBeacon, KindNeighbor:
		dst = appendU16(dst, r.PeerID)
		dst = legacyAppendF32(dst, r.RSSI)
	case KindIR:
		dst = appendU16(dst, r.PeerID)
	case KindEnv:
		dst = legacyAppendF32(dst, r.TempC)
		dst = legacyAppendF32(dst, r.PressHPa)
		dst = legacyAppendF32(dst, r.LightLux)
	case KindWear:
		var flag byte
		if r.Worn {
			flag = 1
		}
		dst = append(dst, flag)
	case KindSync:
		dst = appendUvarint(dst, uint64(r.RefTime))
	case KindBattery:
		dst = legacyAppendF32(dst, r.BatteryPct)
	default:
		return dst, fmt.Errorf("%w: %d", ErrUnknownKind, r.Kind)
	}
	return dst, nil
}

func legacyAppendFrame(dst []byte, r legacyRecord) ([]byte, error) {
	payload := make([]byte, 0, 48)
	payload = append(payload, byte(r.Kind))
	payload = appendUvarint(payload, uint64(r.Local))
	payload, err := legacyAppendBody(payload, r)
	if err != nil {
		return dst, err
	}

	dst = appendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...), nil
}

func legacyDecodeFrame(buf []byte) (legacyRecord, int, error) {
	plen, n := binary.Uvarint(buf)
	if n <= 0 {
		return legacyRecord{}, 0, ErrCorrupt
	}
	if plen > MaxFrameSize {
		return legacyRecord{}, 0, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, plen)
	}
	total := n + int(plen) + 4
	if len(buf) < total {
		return legacyRecord{}, 0, ErrCorrupt
	}
	payload := buf[n : n+int(plen)]
	wantCRC := binary.LittleEndian.Uint32(buf[n+int(plen):])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return legacyRecord{}, total, ErrCorrupt
	}

	r, err := legacyDecodePayload(payload)
	if err != nil {
		return legacyRecord{}, total, err
	}
	return r, total, nil
}

func legacyDecodePayload(payload []byte) (legacyRecord, error) {
	if len(payload) < 2 {
		return legacyRecord{}, ErrCorrupt
	}
	var r legacyRecord
	r.Kind = Kind(payload[0])
	ts, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return legacyRecord{}, ErrCorrupt
	}
	r.Local = time.Duration(ts)
	body := payload[1+n:]
	used, err := legacyDecodeBody(&r, body)
	if err != nil {
		return legacyRecord{}, err
	}
	if used != len(body) {
		return legacyRecord{}, ErrCorrupt
	}
	return r, nil
}

func legacyDecodeBody(r *legacyRecord, buf []byte) (int, error) {
	body := buf

	readU16 := func() (uint16, bool) {
		if len(body) < 2 {
			return 0, false
		}
		v := binary.LittleEndian.Uint16(body)
		body = body[2:]
		return v, true
	}
	readF32 := func() (float32, bool) {
		if len(body) < 4 {
			return 0, false
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(body))
		body = body[4:]
		return v, true
	}
	readByte := func() (byte, bool) {
		if len(body) < 1 {
			return 0, false
		}
		v := body[0]
		body = body[1:]
		return v, true
	}

	ok := true
	switch r.Kind {
	case KindAccel:
		var x, y, z uint16
		var o1, o2, o3 bool
		x, o1 = readU16()
		y, o2 = readU16()
		z, o3 = readU16()
		ok = o1 && o2 && o3
		r.AX, r.AY, r.AZ = int16(x), int16(y), int16(z)
	case KindMic:
		var flag byte
		var o1, o2, o3, o4 bool
		flag, o1 = readByte()
		r.LoudnessDB, o2 = readF32()
		r.FundamentalHz, o3 = readF32()
		r.SpeechFraction, o4 = readF32()
		ok = o1 && o2 && o3 && o4
		r.SpeechDetected = flag == 1
	case KindBeacon, KindNeighbor:
		var o1, o2 bool
		r.PeerID, o1 = readU16()
		r.RSSI, o2 = readF32()
		ok = o1 && o2
	case KindIR:
		r.PeerID, ok = readU16()
	case KindEnv:
		var o1, o2, o3 bool
		r.TempC, o1 = readF32()
		r.PressHPa, o2 = readF32()
		r.LightLux, o3 = readF32()
		ok = o1 && o2 && o3
	case KindWear:
		var flag byte
		flag, ok = readByte()
		r.Worn = flag == 1
	case KindSync:
		rt, m := binary.Uvarint(body)
		if m <= 0 {
			return 0, ErrCorrupt
		}
		body = body[m:]
		r.RefTime = time.Duration(rt)
	case KindBattery:
		r.BatteryPct, ok = readF32()
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownKind, r.Kind)
	}
	if !ok {
		return 0, ErrCorrupt
	}
	return len(buf) - len(body), nil
}

// fromLegacy builds the compact record of l through the constructor of its
// kind; an unknown kind keeps only Local and Kind.
func fromLegacy(l legacyRecord) Record {
	switch l.Kind {
	case KindAccel:
		return NewAccel(l.Local, l.AX, l.AY, l.AZ)
	case KindMic:
		return NewMic(l.Local, l.SpeechDetected, l.LoudnessDB, l.FundamentalHz, l.SpeechFraction)
	case KindBeacon:
		return NewBeacon(l.Local, l.PeerID, l.RSSI)
	case KindNeighbor:
		return NewNeighbor(l.Local, l.PeerID, l.RSSI)
	case KindIR:
		return NewIR(l.Local, l.PeerID)
	case KindEnv:
		return NewEnv(l.Local, l.TempC, l.PressHPa, l.LightLux)
	case KindWear:
		return NewWear(l.Local, l.Worn)
	case KindSync:
		return NewSync(l.Local, l.RefTime)
	case KindBattery:
		return NewBattery(l.Local, l.BatteryPct)
	}
	return Record{Local: l.Local, Kind: l.Kind}
}

// toLegacy reads r back through the accessors of its kind into the wide
// row, setting only the fields that kind uses.
func toLegacy(r Record) legacyRecord {
	l := legacyRecord{Local: r.Local, Kind: r.Kind}
	switch r.Kind {
	case KindAccel:
		l.AX, l.AY, l.AZ = r.Accel()
	case KindMic:
		l.SpeechDetected, l.LoudnessDB, l.FundamentalHz, l.SpeechFraction = r.Mic()
	case KindBeacon, KindNeighbor:
		l.PeerID, l.RSSI = r.PeerID, r.RSSI()
	case KindIR:
		l.PeerID = r.PeerID
	case KindEnv:
		l.TempC, l.PressHPa, l.LightLux = r.Env()
	case KindWear:
		l.Worn = r.Worn()
	case KindSync:
		l.RefTime = r.RefTime()
	case KindBattery:
		l.BatteryPct = r.BatteryPct()
	}
	return l
}

// sameLegacy reports whether a and b are equal field by field, floats
// compared by their bits so NaN payloads compare equal to themselves and
// -0 differs from +0.
func sameLegacy(a, b legacyRecord) bool {
	fb := func(v float32) uint32 { return math.Float32bits(v) }
	return a.Local == b.Local && a.Kind == b.Kind &&
		a.AX == b.AX && a.AY == b.AY && a.AZ == b.AZ &&
		a.SpeechDetected == b.SpeechDetected &&
		fb(a.LoudnessDB) == fb(b.LoudnessDB) && fb(a.FundamentalHz) == fb(b.FundamentalHz) &&
		fb(a.SpeechFraction) == fb(b.SpeechFraction) &&
		a.PeerID == b.PeerID && fb(a.RSSI) == fb(b.RSSI) &&
		fb(a.TempC) == fb(b.TempC) && fb(a.PressHPa) == fb(b.PressHPa) && fb(a.LightLux) == fb(b.LightLux) &&
		a.Worn == b.Worn && a.RefTime == b.RefTime && fb(a.BatteryPct) == fb(b.BatteryPct)
}

// Edge values the generator draws from half the time.
var (
	edgeF32 = []uint32{
		0x7fc00000, 0xffc00000, 0x7f800001, 0x7fffffff, 0xff812345, // NaNs: quiet, negative, signalling, all-ones, payload
		0x7f800000, 0xff800000, // ±Inf
		0x80000000, 0, // -0, +0
		1, 0x7f7fffff, // smallest subnormal, MaxFloat32
	}
	edgeI16  = []int16{math.MinInt16, math.MaxInt16, -1, 0, 1}
	edgeU16  = []uint16{0, 1, math.MaxUint16}
	edgeTime = []time.Duration{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 35}
)

// Generate implements quick.Generator: a record of a random kind with only
// that kind's fields set, each an edge value half the time.
func (legacyRecord) Generate(rng *rand.Rand, _ int) reflect.Value {
	edge := func() bool { return rng.Intn(2) == 0 }
	f32 := func() float32 {
		if edge() {
			return math.Float32frombits(edgeF32[rng.Intn(len(edgeF32))])
		}
		return math.Float32frombits(rng.Uint32())
	}
	i16 := func() int16 {
		if edge() {
			return edgeI16[rng.Intn(len(edgeI16))]
		}
		return int16(rng.Uint32())
	}
	u16 := func() uint16 {
		if edge() {
			return edgeU16[rng.Intn(len(edgeU16))]
		}
		return uint16(rng.Uint32())
	}
	dur := func() time.Duration {
		if edge() {
			return edgeTime[rng.Intn(len(edgeTime))]
		}
		return time.Duration(rng.Uint64())
	}
	l := legacyRecord{Local: dur(), Kind: Kind(1 + rng.Intn(int(KindBattery)))}
	switch l.Kind {
	case KindAccel:
		l.AX, l.AY, l.AZ = i16(), i16(), i16()
	case KindMic:
		l.SpeechDetected, l.LoudnessDB, l.FundamentalHz, l.SpeechFraction = edge(), f32(), f32(), f32()
	case KindBeacon, KindNeighbor:
		l.PeerID, l.RSSI = u16(), f32()
	case KindIR:
		l.PeerID = u16()
	case KindEnv:
		l.TempC, l.PressHPa, l.LightLux = f32(), f32(), f32()
	case KindWear:
		l.Worn = edge()
	case KindSync:
		l.RefTime = dur()
	case KindBattery:
		l.BatteryPct = f32()
	}
	return reflect.ValueOf(l)
}

// checkLegacyParity reports how l and its compact record disagree, or nil:
// they must encode to identical frames of the size EncodedSize gives, each
// decoder must read the other's frame back to its own record, and the
// compact record's accessors must read back l's fields bit for bit.
func checkLegacyParity(l legacyRecord) error {
	r := fromLegacy(l)
	oldFrame, err := legacyAppendFrame(nil, l)
	if err != nil {
		return err
	}
	newFrame, err := AppendFrame(nil, r)
	if err != nil {
		return err
	}
	if !bytes.Equal(oldFrame, newFrame) {
		return fmt.Errorf("frames differ: legacy %x, compact %x", oldFrame, newFrame)
	}
	if size, err := EncodedSize(r); err != nil || size != len(newFrame) {
		return fmt.Errorf("EncodedSize = %d (%v), frame is %d bytes", size, err, len(newFrame))
	}
	got, n, err := DecodeFrame(oldFrame)
	if err != nil || n != len(oldFrame) || got != r {
		return fmt.Errorf("legacy frame decodes to %+v (n=%d, %v), want %+v", got, n, err, r)
	}
	gotL, n, err := legacyDecodeFrame(newFrame)
	if err != nil || n != len(newFrame) || !sameLegacy(gotL, l) {
		return fmt.Errorf("compact frame decodes through the legacy decoder to %+v (n=%d, %v), want %+v", gotL, n, err, l)
	}
	if back := toLegacy(r); !sameLegacy(back, l) {
		return fmt.Errorf("accessors read %+v, want %+v", back, l)
	}
	return nil
}

// Property: the compact record and the legacy wide row agree on every kind
// (see checkLegacyParity), with NaN payloads of several bit patterns, ±Inf,
// -0, the int16 and uint16 extremes and negative or MaxInt64 times among
// the inputs.
func TestQuickLegacyParity(t *testing.T) {
	f := func(l legacyRecord) bool {
		if err := checkLegacyParity(l); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestLegacyParityEdges runs the parity check on every edge value of every
// payload slot, so no edge depends on the generator drawing it.
func TestLegacyParityEdges(t *testing.T) {
	var cases []legacyRecord
	for _, u := range edgeF32 {
		v := math.Float32frombits(u)
		cases = append(cases,
			legacyRecord{Kind: KindMic, SpeechDetected: true, LoudnessDB: v, FundamentalHz: v, SpeechFraction: v},
			legacyRecord{Kind: KindBeacon, PeerID: 3, RSSI: v},
			legacyRecord{Kind: KindNeighbor, RSSI: v},
			legacyRecord{Kind: KindEnv, TempC: v, PressHPa: -v, LightLux: v},
			legacyRecord{Kind: KindBattery, BatteryPct: v},
		)
	}
	for _, v := range edgeI16 {
		cases = append(cases, legacyRecord{Kind: KindAccel, AX: v, AY: -v, AZ: v})
	}
	for _, v := range edgeU16 {
		cases = append(cases, legacyRecord{Kind: KindIR, PeerID: v}, legacyRecord{Kind: KindBeacon, PeerID: v})
	}
	for _, v := range edgeTime {
		cases = append(cases,
			legacyRecord{Kind: KindSync, Local: v, RefTime: v},
			legacyRecord{Kind: KindSync, Local: -v, RefTime: -v},
			legacyRecord{Kind: KindWear, Local: v, Worn: true},
			legacyRecord{Kind: KindWear, Local: v},
		)
	}
	for _, l := range cases {
		if err := checkLegacyParity(l); err != nil {
			t.Errorf("%v: %v", l.Kind, err)
		}
	}
}

// legacyDecodeAgrees reports how the legacy decoder's reading of data
// differs from DecodeFrame's (rec, n, err), or nil: both must consume the
// same bytes with the same error class, and an accepted frame must decode
// to the same record and re-encode to the same bytes.
func legacyDecodeAgrees(data []byte, rec Record, n int, err error) error {
	l, ln, lerr := legacyDecodeFrame(data)
	if ln != n {
		return fmt.Errorf("legacy decoder consumed %d bytes, compact %d", ln, n)
	}
	for _, class := range []error{ErrCorrupt, ErrUnknownKind, ErrTooLarge} {
		if errors.Is(lerr, class) != errors.Is(err, class) {
			return fmt.Errorf("error classes differ: legacy %v, compact %v", lerr, err)
		}
	}
	if err != nil {
		return nil
	}
	if fromLegacy(l) != rec {
		return fmt.Errorf("legacy decoder read %+v, compact %+v", l, rec)
	}
	oldFrame, lerr := legacyAppendFrame(nil, l)
	newFrame, err := AppendFrame(nil, rec)
	if lerr != nil || err != nil || !bytes.Equal(oldFrame, newFrame) {
		return fmt.Errorf("re-encodings differ: legacy %x (%v), compact %x (%v)", oldFrame, lerr, newFrame, err)
	}
	return nil
}
