package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/stats"
)

func sampleRecords() []Record {
	return []Record{
		NewAccel(5*time.Second, -120, 980, 44),
		NewMic(6*time.Second, true, 63.5, 128, 0.5),
		NewMic(6*time.Second, false, 38.25, 0, 0),
		NewBeacon(7*time.Second, 13, -72.5),
		NewNeighbor(7*time.Second, 3, -55),
		NewIR(8*time.Second, 4),
		NewEnv(9*time.Second, 22.5, 1002.25, 310),
		NewWear(10*time.Second, true),
		NewWear(11*time.Second, false),
		NewSync(12*time.Second, 11*time.Second+750*time.Millisecond),
		NewBattery(13*time.Second, 87.5),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		t.Run(want.Kind.String(), func(t *testing.T) {
			frame, err := AppendFrame(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frame) {
				t.Errorf("consumed %d of %d bytes", n, len(frame))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestAppendFrameUnknownKind(t *testing.T) {
	if _, err := AppendFrame(nil, Record{Kind: Kind(200)}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestDecodeFrameCorruptCRC(t *testing.T) {
	frame, err := AppendFrame(nil, sampleRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF
	_, n, err := DecodeFrame(frame)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt CRC: %v", err)
	}
	if n != len(frame) {
		t.Errorf("corrupt frame consumed %d bytes, want %d (skippable)", n, len(frame))
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	frame, err := AppendFrame(nil, sampleRecords()[3])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeFrameTooLarge(t *testing.T) {
	buf := appendUvarint(nil, MaxFrameSize+1)
	if _, _, err := DecodeFrame(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized: %v", err)
	}
}

func TestDecodePayloadTrailingBytes(t *testing.T) {
	frame, err := AppendFrame(nil, NewWear(time.Second, true))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the frame with one extra payload byte and a fresh CRC; the
	// decoder must reject trailing garbage.
	plen, n := uvarint(frame)
	payload := append([]byte{}, frame[n:n+int(plen)]...)
	payload = append(payload, 0xAA)
	bad := appendUvarint(nil, uint64(len(payload)))
	bad = append(bad, payload...)
	crc := crc32.ChecksumIEEE(payload)
	bad = append(bad, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, x := range b {
		if x < 0x80 {
			return v | uint64(x)<<s, i + 1
		}
		v |= uint64(x&0x7f) << s
		s += 7
	}
	return 0, 0
}

func TestEncodedSizeMatchesAppendFrame(t *testing.T) {
	// EncodedSize is the store's O(1) replacement for the encode-to-count
	// pattern; pin it against the real encoder for every record kind.
	for _, r := range sampleRecords() {
		t.Run(r.Kind.String(), func(t *testing.T) {
			frame, err := AppendFrame(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodedSize(r)
			if err != nil {
				t.Fatal(err)
			}
			if got != len(frame) {
				t.Errorf("EncodedSize = %d, AppendFrame emitted %d bytes", got, len(frame))
			}
		})
	}
}

func TestEncodedSizeUnknownKind(t *testing.T) {
	// It must fail exactly when AppendFrame fails, so the store can account
	// (rather than silently undercount) unencodable records.
	if _, err := EncodedSize(Record{Kind: Kind(200)}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
}

// Property: EncodedSize agrees with AppendFrame for random records of every
// kind, including multi-byte uvarint timestamps and RefTime values.
func TestQuickEncodedSize(t *testing.T) {
	kinds := []Kind{
		KindAccel, KindMic, KindBeacon, KindNeighbor, KindIR,
		KindEnv, KindWear, KindSync, KindBattery,
	}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		r := Record{
			Local: time.Duration(rng.Uint64() % uint64(30*24*time.Hour)),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
		if r.Kind == KindSync {
			r = NewSync(r.Local, time.Duration(rng.Uint64()%uint64(30*24*time.Hour)))
		}
		frame, err := AppendFrame(nil, r)
		if err != nil {
			return false
		}
		size, err := EncodedSize(r)
		return err == nil && size == len(frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: uvarintLen is the length binary.AppendUvarint emits, at the
// 7-bit group edges and for random values of every bit length.
func TestQuickUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 63, math.MaxUint64} {
		if got, want := uvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("uvarintLen(%#x) = %d, want %d", v, got, want)
		}
	}
	f := func(v uint64, shift uint8) bool {
		v >>= shift % 64
		return uvarintLen(v) == len(binary.AppendUvarint(nil, v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindMic.String() != "mic" || KindSync.String() != "sync" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind name")
	}
}

// Property: every randomly generated valid record round-trips bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	kinds := []Kind{
		KindAccel, KindMic, KindBeacon, KindNeighbor, KindIR,
		KindEnv, KindWear, KindSync, KindBattery,
	}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		r := Record{
			Local: time.Duration(rng.Uint64() % uint64(30*24*time.Hour)),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
		switch t := r.Local; r.Kind {
		case KindAccel:
			r = NewAccel(t, int16(rng.Intn(65536)-32768), int16(rng.Intn(65536)-32768), int16(rng.Intn(65536)-32768))
		case KindMic:
			r = NewMic(t, rng.Bool(0.5), float32(rng.Range(20, 100)), float32(rng.Range(0, 400)), float32(rng.Float64()))
		case KindBeacon:
			r = NewBeacon(t, uint16(rng.Intn(65536)), float32(rng.Range(-110, -20)))
		case KindNeighbor:
			r = NewNeighbor(t, uint16(rng.Intn(65536)), float32(rng.Range(-110, -20)))
		case KindIR:
			r = NewIR(t, uint16(rng.Intn(65536)))
		case KindEnv:
			r = NewEnv(t, float32(rng.Range(-10, 40)), float32(rng.Range(900, 1100)), float32(rng.Range(0, 2000)))
		case KindWear:
			r = NewWear(t, rng.Bool(0.5))
		case KindSync:
			r = NewSync(t, time.Duration(rng.Uint64()%uint64(30*24*time.Hour)))
		case KindBattery:
			r = NewBattery(t, float32(rng.Range(0, 100)))
		}
		frame, err := AppendFrame(nil, r)
		if err != nil {
			return false
		}
		got, n, err := DecodeFrame(frame)
		return err == nil && n == len(frame) && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary garbage never panics and never returns a nil
// error with an unconsumed frame.
func TestQuickDecodeGarbage(t *testing.T) {
	f := func(b []byte) bool {
		rec, n, err := DecodeFrame(b)
		if err == nil {
			// A successful decode must consume a plausible frame.
			return n > 0 && n <= len(b) && rec.Kind.String() != ""
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// AppendBody/DecodeBody are the column codec the segment store builds on:
// they must round-trip every kind and agree with the framed encoding's body.
func TestBodyRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		t.Run(want.Kind.String(), func(t *testing.T) {
			body, err := AppendBody(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			got := Record{Local: want.Local, Kind: want.Kind}
			used, err := DecodeBody(&got, body)
			if err != nil {
				t.Fatal(err)
			}
			if used != len(body) {
				t.Errorf("consumed %d of %d bytes", used, len(body))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
			}
			// The frame's body must be exactly AppendBody's output, so the
			// two encodings never drift apart.
			frame, err := AppendFrame(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(frame, body) {
				t.Error("frame does not embed the AppendBody encoding")
			}
		})
	}
}

func TestAppendBodyUnknownKind(t *testing.T) {
	if _, err := AppendBody(nil, Record{Kind: Kind(77)}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestDecodeBodyShortBuffer(t *testing.T) {
	for _, r := range sampleRecords() {
		body, err := AppendBody(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) == 0 {
			continue
		}
		var out Record
		out.Kind = r.Kind
		if _, err := DecodeBody(&out, body[:len(body)-1]); err == nil {
			t.Errorf("%v: short body decoded without error", r.Kind)
		}
	}
}
