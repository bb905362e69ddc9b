package mission

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"icares/internal/record"
)

// goldenDigest is the sha256 of every record a seed-7, two-day mission
// produces (see missionDigest). TestRunDeterministic only compares two runs of
// the same build; this pins the output across builds, so a change meant to be
// behaviour-preserving (a faster wall test, a different store layout) cannot
// silently alter what the simulator records. Update it only with a change
// that is meant to alter simulator output, and say so.
const goldenDigest = "d78f07087cf0aca4058522cdbf9f879e150fdbac4700a971751cff0df915854f"

// missionDigest hashes every badge's records in badge order, each series read
// through All (time order, stable among equal timestamps). Each badge
// contributes its ID and record count, then each record's framed encoding,
// which covers the timestamp, the kind and every field of that kind.
func missionDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	for _, id := range res.Dataset.Badges() {
		recs := res.Dataset.Series(id).All()
		buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
		h.Write(buf)
		for _, r := range recs {
			var err error
			if buf, err = record.AppendFrame(buf[:0], r); err != nil {
				t.Fatalf("badge %d: %v", id, err)
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestRunGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	sc := DefaultScenario(7)
	sc.Days = 2
	res, err := Run(Config{Seed: 7, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := missionDigest(t, res); got != goldenDigest {
		t.Errorf("simulator output changed:\n got %s\nwant %s", got, goldenDigest)
	}
}
