package record

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// fuzzSeedRecords covers every kind with representative field values.
func fuzzSeedRecords() []Record {
	return []Record{
		NewAccel(5*time.Second, -120, 980, 17),
		NewMic(15*time.Second, true, 63.5, 182, 0.4),
		NewBeacon(time.Minute, 27, -71.25),
		NewNeighbor(2*time.Minute, 6, -55),
		NewIR(3*time.Minute, 4),
		NewEnv(time.Hour, 23.6, 1004, 300),
		NewWear(26*time.Hour, true),
		NewSync(30*time.Hour, 30*time.Hour+1500*time.Millisecond),
		NewBattery(48*time.Hour, 17),
	}
}

// FuzzDecodeFrame drives the on-badge frame decoder with valid frames plus
// truncated and bit-flipped mutants. Invariants: the decoder never panics,
// never reports consuming more bytes than it was given, agrees with the
// legacy wide-row decoder on every input, round-trips every frame it
// accepts, and flags any single-bit payload damage through the CRC path.
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range fuzzSeedRecords() {
		frame, err := AppendFrame(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{}, frame...))
		f.Add(append([]byte{}, frame[:len(frame)-3]...)) // truncated tail
		flipped := append([]byte{}, frame...)
		flipped[len(flipped)/2] ^= 0x10 // bit rot mid-frame
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint length

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeFrame(data)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Legacy parity: the wide-row decoder this package used to have
		// reads the same bytes the same way.
		if perr := legacyDecodeAgrees(data, rec, n, err); perr != nil {
			t.Fatal(perr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownKind) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n == 0 {
			t.Fatal("successful decode consumed nothing")
		}
		// Round trip: re-encoding the decoded record and decoding again
		// must reproduce it bit-exactly (frame bytes compared, so NaN
		// payloads in float fields cannot trip struct comparison).
		frame, err := AppendFrame(nil, rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record: %v", err)
		}
		rec2, m, err := DecodeFrame(frame)
		if err != nil || m != len(frame) {
			t.Fatalf("re-decode: n=%d err=%v", m, err)
		}
		frame2, err := AppendFrame(nil, rec2)
		if err != nil || !bytes.Equal(frame, frame2) {
			t.Fatalf("round trip diverged: %x vs %x (err %v)", frame, frame2, err)
		}
		// CRC path: flipping one payload bit of a valid frame must be
		// detected (CRC-32 always catches single-bit damage).
		damaged := append([]byte{}, frame...)
		damaged[len(damaged)-5] ^= 0x01 // last payload byte, before the CRC tail
		if _, _, derr := DecodeFrame(damaged); derr == nil {
			t.Fatal("single-bit payload damage not flagged via CRC")
		}
	})
}
