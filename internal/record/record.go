// Package record defines the on-badge data format: the typed sensor records
// a badge writes to its SD card (its store.Series) and the framed binary
// encoding of one record. The paper's badges store "frequently sampled raw
// data ... on an on-board SD card for offline analyses"; this package is the
// schema of that data. The frame is the unit of byte accounting (EncodedSize,
// an archive manifest's framed_bytes) and of the fault plans' corruption
// wrapper; the on-disk dataset format is the segment (package segment).
//
// Wire format of one frame:
//
//	uvarint  payload length (kind byte + timestamp + body)
//	payload  kind byte, uvarint local timestamp (ns), kind-specific body
//	uint32   CRC-32 (IEEE) of the payload, little-endian
//
// Multi-byte integers in bodies are little-endian. Timestamps are the local
// badge clock (see simtime.Oscillator); rectification to mission time
// happens downstream in timesync.
//
// In memory a decoded Record is a compact 24-byte value, not a row with a
// field per payload: a kind's payload is written by that kind's constructor
// (NewAccel, NewMic, ...) and read by that kind's accessor (Accel, Mic,
// RSSI, ...), and the bytes a kind does not use stay zero.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"time"
)

// Kind discriminates record types.
type Kind uint8

// Record kinds.
const (
	// KindAccel is a 3-axis accelerometer sample in milli-g.
	KindAccel Kind = iota + 1
	// KindMic is a 1 s microphone feature frame (no raw audio, per the
	// mission's privacy rules: speech presence, loudness, fundamental
	// frequency only).
	KindMic
	// KindBeacon is one received BLE beacon advertisement with RSSI.
	KindBeacon
	// KindNeighbor is one received 868 MHz badge announcement with RSSI.
	KindNeighbor
	// KindIR is a confirmed infrared face-to-face contact.
	KindIR
	// KindEnv is an environmental sample: temperature, pressure, light.
	KindEnv
	// KindWear is a wear-state transition (badge put on / taken off).
	KindWear
	// KindSync is a time-sync exchange with the reference badge.
	KindSync
	// KindBattery is a battery state-of-charge sample.
	KindBattery
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindAccel:
		return "accel"
	case KindMic:
		return "mic"
	case KindBeacon:
		return "beacon"
	case KindNeighbor:
		return "neighbor"
	case KindIR:
		return "ir"
	case KindEnv:
		return "env"
	case KindWear:
		return "wear"
	case KindSync:
		return "sync"
	case KindBattery:
		return "battery"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors returned by the codec.
var (
	ErrCorrupt     = errors.New("record: corrupt frame")
	ErrUnknownKind = errors.New("record: unknown kind")
	ErrTooLarge    = errors.New("record: frame too large")
)

// MaxFrameSize bounds a single encoded frame; anything larger is corrupt.
const MaxFrameSize = 256

// Record is one decoded on-badge record: 24 bytes, so the millions a
// mission holds in memory cost a third of a one-field-per-payload row.
//
//	bytes  0–7   Local
//	byte   8     Kind
//	byte   9     flags: SpeechDetected (KindMic), Worn (KindWear)
//	bytes 10–11  PeerID
//	bytes 12–23  payload: three 32-bit words
//
// Local, Kind and PeerID are plain fields. The payload is read through the
// accessor of the record's kind (Accel, Mic, RSSI, Env, Worn, RefTime,
// BatteryPct) and written only by the constructor of that kind (NewAccel,
// NewMic, ...), which leaves every byte its kind does not use zero. So
// records of equal content compare equal with ==, floats included: they are
// held as their math.Float32bits, bit for bit. An accessor of another kind
// reads meaningless values.
type Record struct {
	// Local is the badge-local timestamp of the sample.
	Local time.Duration
	Kind  Kind
	flags uint8
	// PeerID is the observed beacon ID (KindBeacon) or badge ID
	// (KindNeighbor, KindIR); zero for every other kind.
	PeerID uint16
	w      [3]uint32
}

// Flag bits of Record.flags.
const (
	flagSpeech = 1 << iota
	flagWorn
)

// NewAccel returns a 3-axis accelerometer sample in milli-g; each axis
// takes the low 16 bits of its payload word.
func NewAccel(local time.Duration, x, y, z int16) Record {
	return Record{Local: local, Kind: KindAccel, w: [3]uint32{uint32(uint16(x)), uint32(uint16(y)), uint32(uint16(z))}}
}

// NewMic returns a microphone feature frame. The badge stores raw
// features; the paper's thresholds (>= 60 dB for >= 20% of a 15 s
// interval) are applied downstream in the speech analysis, which is why
// the fraction is recorded rather than a final verdict.
func NewMic(local time.Duration, speech bool, loudnessDB, fundamentalHz, speechFraction float32) Record {
	r := Record{Local: local, Kind: KindMic, w: [3]uint32{
		math.Float32bits(loudnessDB), math.Float32bits(fundamentalHz), math.Float32bits(speechFraction)}}
	if speech {
		r.flags = flagSpeech
	}
	return r
}

// NewBeacon returns a received BLE beacon advertisement with its RSSI in dBm.
func NewBeacon(local time.Duration, beacon uint16, rssi float32) Record {
	return Record{Local: local, Kind: KindBeacon, PeerID: beacon, w: [3]uint32{math.Float32bits(rssi)}}
}

// NewNeighbor returns a received 868 MHz badge announcement with its RSSI
// in dBm.
func NewNeighbor(local time.Duration, badge uint16, rssi float32) Record {
	return Record{Local: local, Kind: KindNeighbor, PeerID: badge, w: [3]uint32{math.Float32bits(rssi)}}
}

// NewIR returns a confirmed infrared face-to-face contact with a badge.
func NewIR(local time.Duration, badge uint16) Record {
	return Record{Local: local, Kind: KindIR, PeerID: badge}
}

// NewEnv returns an environmental sample.
func NewEnv(local time.Duration, tempC, pressHPa, lightLux float32) Record {
	return Record{Local: local, Kind: KindEnv, w: [3]uint32{
		math.Float32bits(tempC), math.Float32bits(pressHPa), math.Float32bits(lightLux)}}
}

// NewWear returns a wear-state transition: worn is the new state (badge
// put on or taken off).
func NewWear(local time.Duration, worn bool) Record {
	r := Record{Local: local, Kind: KindWear}
	if worn {
		r.flags = flagWorn
	}
	return r
}

// NewSync returns a time-sync exchange: ref is the reference badge's clock
// at the instant this badge's clock read local. It takes two payload words,
// low half first.
func NewSync(local, ref time.Duration) Record {
	return Record{Local: local, Kind: KindSync, w: [3]uint32{uint32(uint64(ref)), uint32(uint64(ref) >> 32)}}
}

// NewBattery returns a battery state-of-charge sample in [0,100].
func NewBattery(local time.Duration, pct float32) Record {
	return Record{Local: local, Kind: KindBattery, w: [3]uint32{math.Float32bits(pct)}}
}

// Accel returns the axes of a KindAccel sample, in milli-g.
func (r Record) Accel() (x, y, z int16) {
	return int16(r.w[0]), int16(r.w[1]), int16(r.w[2])
}

// Mic returns the features of a KindMic frame: any voice-band activity
// during the frame, its max voice-band level, the dominant voice
// fundamental (0 if no speech), and the fraction of the frame with voice
// activity.
func (r Record) Mic() (speech bool, loudnessDB, fundamentalHz, speechFraction float32) {
	return r.flags&flagSpeech != 0, math.Float32frombits(r.w[0]), math.Float32frombits(r.w[1]), math.Float32frombits(r.w[2])
}

// RSSI returns the received strength in dBm of a KindBeacon or
// KindNeighbor record.
func (r Record) RSSI() float32 { return math.Float32frombits(r.w[0]) }

// Env returns the temperature, pressure and light of a KindEnv sample.
func (r Record) Env() (tempC, pressHPa, lightLux float32) {
	return math.Float32frombits(r.w[0]), math.Float32frombits(r.w[1]), math.Float32frombits(r.w[2])
}

// Worn returns the new wear state of a KindWear transition.
func (r Record) Worn() bool { return r.flags&flagWorn != 0 }

// RefTime returns the reference badge's clock of a KindSync exchange
// (Local holds this badge's clock at the same instant).
func (r Record) RefTime() time.Duration {
	return time.Duration(uint64(r.w[0]) | uint64(r.w[1])<<32)
}

// BatteryPct returns the state of charge of a KindBattery sample.
func (r Record) BatteryPct() float32 { return math.Float32frombits(r.w[0]) }

// Word returns payload word i (0–2) of r for the segment codec, which
// moves float and accel columns as raw bits: word i holds the i-th float of
// a Mic, Env, RSSI or BatteryPct payload as its math.Float32bits, and the
// i-th accel axis in its low 16 bits. Writing through it must keep that
// form, with the upper 16 bits of an accel word zero.
func (r *Record) Word(i int) *uint32 { return &r.w[i] }

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, u uint32) []byte {
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// AppendBody appends only the kind-specific body of r — no kind byte, no
// timestamp, no framing. It is the columnar building block of the segment
// format, where kind and timestamp live in separate streams; AppendFrame
// composes it into the framed on-badge encoding. It fails exactly when
// AppendFrame fails: on an unknown kind.
func AppendBody(dst []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindAccel:
		dst = appendU16(dst, uint16(r.w[0]))
		dst = appendU16(dst, uint16(r.w[1]))
		dst = appendU16(dst, uint16(r.w[2]))
	case KindMic:
		dst = append(dst, r.flags&flagSpeech)
		dst = appendU32(dst, r.w[0])
		dst = appendU32(dst, r.w[1])
		dst = appendU32(dst, r.w[2])
	case KindBeacon, KindNeighbor:
		dst = appendU16(dst, r.PeerID)
		dst = appendU32(dst, r.w[0])
	case KindIR:
		dst = appendU16(dst, r.PeerID)
	case KindEnv:
		dst = appendU32(dst, r.w[0])
		dst = appendU32(dst, r.w[1])
		dst = appendU32(dst, r.w[2])
	case KindWear:
		dst = append(dst, (r.flags&flagWorn)>>1)
	case KindSync:
		dst = appendUvarint(dst, uint64(r.RefTime()))
	case KindBattery:
		dst = appendU32(dst, r.w[0])
	default:
		return dst, fmt.Errorf("%w: %d", ErrUnknownKind, r.Kind)
	}
	return dst, nil
}

// AppendFrame encodes r and appends the frame to dst, returning the
// extended slice.
func AppendFrame(dst []byte, r Record) ([]byte, error) {
	payload := make([]byte, 0, 48)
	payload = append(payload, byte(r.Kind))
	payload = appendUvarint(payload, uint64(r.Local))
	payload, err := AppendBody(payload, r)
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

// uvarintLen returns the number of bytes PutUvarint emits for v: one per
// started 7-bit group of its significant bits, and one for zero.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// bodySize returns the encoded size of the kind-specific body of r.
func bodySize(r Record) (int, error) {
	switch r.Kind {
	case KindAccel:
		return 6, nil // 3 × int16
	case KindMic:
		return 13, nil // flag + 3 × float32
	case KindBeacon, KindNeighbor:
		return 6, nil // uint16 + float32
	case KindIR:
		return 2, nil // uint16
	case KindEnv:
		return 12, nil // 3 × float32
	case KindWear:
		return 1, nil // flag
	case KindSync:
		return uvarintLen(uint64(r.RefTime())), nil
	case KindBattery:
		return 4, nil // float32
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownKind, r.Kind)
	}
}

// EncodedSize returns the exact number of bytes AppendFrame emits for r —
// length prefix, payload (kind byte, uvarint timestamp, body) and CRC
// trailer — without encoding anything. It fails exactly when AppendFrame
// fails: on an unknown kind. The store's byte accounting uses it so an
// append never pays a throwaway encode just to count bytes.
func EncodedSize(r Record) (int, error) {
	body, err := bodySize(r)
	if err != nil {
		return 0, err
	}
	plen := 1 + uvarintLen(uint64(r.Local)) + body
	return uvarintLen(uint64(plen)) + plen + 4, nil
}

// DecodeFrame decodes one frame from the front of buf, returning the record
// and the number of bytes consumed. It returns ErrCorrupt for truncated or
// checksum-failing frames and ErrUnknownKind for unrecognized kinds (with
// the frame still consumed, so a reader can skip it).
func DecodeFrame(buf []byte) (Record, int, error) {
	plen, n := binary.Uvarint(buf)
	if n <= 0 {
		return Record{}, 0, ErrCorrupt
	}
	if plen > MaxFrameSize {
		return Record{}, 0, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, plen)
	}
	total := n + int(plen) + 4
	if len(buf) < total {
		return Record{}, 0, ErrCorrupt
	}
	payload := buf[n : n+int(plen)]
	wantCRC := binary.LittleEndian.Uint32(buf[n+int(plen):])
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return Record{}, total, ErrCorrupt
	}

	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, total, err
	}
	return r, total, nil
}

func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 2 {
		return Record{}, ErrCorrupt
	}
	var r Record
	r.Kind = Kind(payload[0])
	ts, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return Record{}, ErrCorrupt
	}
	r.Local = time.Duration(ts)
	body := payload[1+n:]
	used, err := DecodeBody(&r, body)
	if err != nil {
		return Record{}, err
	}
	if used != len(body) {
		return Record{}, ErrCorrupt
	}
	return r, nil
}

// DecodeBody decodes the kind-specific body at the front of buf into r,
// which must already carry the Kind (and usually the timestamp — the body
// never does); every other byte of r is overwritten. It returns the number
// of bytes consumed, so bodies can be read back out of a concatenated
// column. Errors mirror decodePayload: ErrCorrupt for short bodies,
// ErrUnknownKind for unrecognized kinds.
func DecodeBody(r *Record, buf []byte) (int, error) {
	u16 := func(i int) uint16 { return binary.LittleEndian.Uint16(buf[i:]) }
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(buf[i:]) }
	f32 := func(i int) float32 { return math.Float32frombits(u32(i)) }
	var n int
	switch r.Kind {
	case KindAccel:
		if n = 6; len(buf) >= n {
			*r = NewAccel(r.Local, int16(u16(0)), int16(u16(2)), int16(u16(4)))
		}
	case KindMic:
		if n = 13; len(buf) >= n {
			*r = NewMic(r.Local, buf[0] == 1, f32(1), f32(5), f32(9))
		}
	case KindBeacon:
		if n = 6; len(buf) >= n {
			*r = NewBeacon(r.Local, u16(0), f32(2))
		}
	case KindNeighbor:
		if n = 6; len(buf) >= n {
			*r = NewNeighbor(r.Local, u16(0), f32(2))
		}
	case KindIR:
		if n = 2; len(buf) >= n {
			*r = NewIR(r.Local, u16(0))
		}
	case KindEnv:
		if n = 12; len(buf) >= n {
			*r = NewEnv(r.Local, f32(0), f32(4), f32(8))
		}
	case KindWear:
		if n = 1; len(buf) >= n {
			*r = NewWear(r.Local, buf[0] == 1)
		}
	case KindSync:
		rt, m := binary.Uvarint(buf)
		if m <= 0 {
			return 0, ErrCorrupt
		}
		*r = NewSync(r.Local, time.Duration(rt))
		return m, nil
	case KindBattery:
		if n = 4; len(buf) >= n {
			*r = NewBattery(r.Local, f32(0))
		}
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownKind, r.Kind)
	}
	if len(buf) < n {
		return 0, ErrCorrupt
	}
	return n, nil
}
