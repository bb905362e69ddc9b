package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/stats"
)

func sampleRecords() []Record {
	return []Record{
		{Local: 5 * time.Second, Kind: KindAccel, AX: -120, AY: 980, AZ: 44},
		{Local: 6 * time.Second, Kind: KindMic, SpeechDetected: true, LoudnessDB: 63.5, FundamentalHz: 128, SpeechFraction: 0.5},
		{Local: 6 * time.Second, Kind: KindMic, SpeechDetected: false, LoudnessDB: 38.25},
		{Local: 7 * time.Second, Kind: KindBeacon, PeerID: 13, RSSI: -72.5},
		{Local: 7 * time.Second, Kind: KindNeighbor, PeerID: 3, RSSI: -55},
		{Local: 8 * time.Second, Kind: KindIR, PeerID: 4},
		{Local: 9 * time.Second, Kind: KindEnv, TempC: 22.5, PressHPa: 1002.25, LightLux: 310},
		{Local: 10 * time.Second, Kind: KindWear, Worn: true},
		{Local: 11 * time.Second, Kind: KindWear, Worn: false},
		{Local: 12 * time.Second, Kind: KindSync, RefTime: 11*time.Second + 750*time.Millisecond},
		{Local: 13 * time.Second, Kind: KindBattery, BatteryPct: 87.5},
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
	frame, err := AppendFrame(nil, Record{Kind: KindWear, Worn: true, Local: time.Second})
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
	crc := crcOf(payload)
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

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := lw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	lr, err := NewLogReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lr.BadgeID() != 42 {
		t.Errorf("badge ID = %d", lr.BadgeID())
	}
	got, err := lr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("log round trip mismatch:\n got %d records\nwant %d", len(got), len(want))
	}
	if lr.Skipped() != 0 {
		t.Errorf("skipped = %d", lr.Skipped())
	}
}

func TestLogReaderSkipsCorruptFrame(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := lw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a bit inside the second frame's payload (after the 7-byte
	// header and first frame).
	firstFrame, err := AppendFrame(nil, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := 7 + len(firstFrame) + 3
	raw[idx] ^= 0x01

	lr, err := NewLogReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-1 {
		t.Errorf("read %d records, want %d", len(got), len(recs)-1)
	}
	if lr.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1", lr.Skipped())
	}
}

func TestLogReaderBadHeader(t *testing.T) {
	if _, err := NewLogReader(bytes.NewReader([]byte("XXXX\x01\x00\x00"))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewLogReader(bytes.NewReader([]byte("ICR1\x09\x00\x00"))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("bad version: %v", err)
	}
	if _, err := NewLogReader(bytes.NewReader([]byte("IC"))); !errors.Is(err, ErrBadHeader) {
		t.Errorf("short header: %v", err)
	}
}

func TestLogReaderTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := lw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	lr, err := NewLogReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sampleRecords())-1 {
		t.Errorf("truncated tail read %d records", len(got))
	}
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
			r.RefTime = time.Duration(rng.Uint64() % uint64(30*24*time.Hour))
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
		switch r.Kind {
		case KindAccel:
			r.AX = int16(rng.Intn(65536) - 32768)
			r.AY = int16(rng.Intn(65536) - 32768)
			r.AZ = int16(rng.Intn(65536) - 32768)
		case KindMic:
			r.SpeechDetected = rng.Bool(0.5)
			r.LoudnessDB = float32(rng.Range(20, 100))
			r.FundamentalHz = float32(rng.Range(0, 400))
			r.SpeechFraction = float32(rng.Float64())
		case KindBeacon, KindNeighbor:
			r.PeerID = uint16(rng.Intn(65536))
			r.RSSI = float32(rng.Range(-110, -20))
		case KindIR:
			r.PeerID = uint16(rng.Intn(65536))
		case KindEnv:
			r.TempC = float32(rng.Range(-10, 40))
			r.PressHPa = float32(rng.Range(900, 1100))
			r.LightLux = float32(rng.Range(0, 2000))
		case KindWear:
			r.Worn = rng.Bool(0.5)
		case KindSync:
			r.RefTime = time.Duration(rng.Uint64() % uint64(30*24*time.Hour))
		case KindBattery:
			r.BatteryPct = float32(rng.Range(0, 100))
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

func TestEmptyLogReadAll(t *testing.T) {
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	lr, err := NewLogReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty log returned %d records", len(got))
	}
	if _, err := lr.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next on empty log: %v", err)
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
