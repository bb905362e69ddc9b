// Package record defines the on-badge data format: the typed sensor records
// a badge writes to its SD card and the framed binary encoding used for the
// log files. The paper's badges store "frequently sampled raw data ... on an
// on-board SD card for offline analyses"; this package is the schema of that
// data and the codec the offline pipeline reads it back with.
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

// Record is one decoded on-badge record. Exactly the fields relevant to
// Kind are meaningful.
type Record struct {
	// Local is the badge-local timestamp of the sample.
	Local time.Duration
	Kind  Kind

	// Accel (milli-g), valid for KindAccel.
	AX, AY, AZ int16

	// Mic features, valid for KindMic. The badge stores raw features; the
	// paper's thresholds (>= 60 dB for >= 20% of a 15 s interval) are
	// applied downstream in the speech analysis, which is why the fraction
	// is recorded rather than a final verdict.
	SpeechDetected bool    // any voice-band activity during the frame
	LoudnessDB     float32 // max voice-band level during the frame
	FundamentalHz  float32 // dominant voice fundamental, 0 if no speech
	SpeechFraction float32 // fraction of the frame with voice activity

	// PeerID is the observed beacon ID (KindBeacon) or badge ID
	// (KindNeighbor, KindIR).
	PeerID uint16
	// RSSI in dBm, valid for KindBeacon and KindNeighbor.
	RSSI float32

	// Env fields, valid for KindEnv.
	TempC    float32
	PressHPa float32
	LightLux float32

	// Worn, valid for KindWear: the new wear state.
	Worn bool

	// RefTime is the reference badge's clock at the exchange, valid for
	// KindSync (Local holds this badge's clock at the same instant).
	RefTime time.Duration

	// BatteryPct in [0,100], valid for KindBattery.
	BatteryPct float32
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendF32(b []byte, v float32) []byte {
	u := math.Float32bits(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

func appendI16(b []byte, v int16) []byte {
	return appendU16(b, uint16(v))
}

// AppendBody appends only the kind-specific body of r — no kind byte, no
// timestamp, no framing. It is the columnar building block of the segment
// format, where kind and timestamp live in separate streams; AppendFrame
// composes it into the framed on-badge encoding. It fails exactly when
// AppendFrame fails: on an unknown kind.
func AppendBody(dst []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindAccel:
		dst = appendI16(dst, r.AX)
		dst = appendI16(dst, r.AY)
		dst = appendI16(dst, r.AZ)
	case KindMic:
		var flag byte
		if r.SpeechDetected {
			flag = 1
		}
		dst = append(dst, flag)
		dst = appendF32(dst, r.LoudnessDB)
		dst = appendF32(dst, r.FundamentalHz)
		dst = appendF32(dst, r.SpeechFraction)
	case KindBeacon, KindNeighbor:
		dst = appendU16(dst, r.PeerID)
		dst = appendF32(dst, r.RSSI)
	case KindIR:
		dst = appendU16(dst, r.PeerID)
	case KindEnv:
		dst = appendF32(dst, r.TempC)
		dst = appendF32(dst, r.PressHPa)
		dst = appendF32(dst, r.LightLux)
	case KindWear:
		var flag byte
		if r.Worn {
			flag = 1
		}
		dst = append(dst, flag)
	case KindSync:
		dst = appendUvarint(dst, uint64(r.RefTime))
	case KindBattery:
		dst = appendF32(dst, r.BatteryPct)
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
		return uvarintLen(uint64(r.RefTime)), nil
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
// never does). It returns the number of bytes consumed, so bodies can be
// read back out of a concatenated column. Errors mirror decodePayload:
// ErrCorrupt for short bodies, ErrUnknownKind for unrecognized kinds.
func DecodeBody(r *Record, buf []byte) (int, error) {
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
