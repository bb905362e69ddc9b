package mission

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"icares/internal/faultplan"
	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/telemetry"
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

// goldenDigestFaults is the sha256 (missionDigest) of a seed-7, two-day
// mission run under a fault plan — two badge death/reboot windows, one of
// them spanning several simulated hours, a fleet-wide and a single-badge
// sync dropout — with lossy BLE and 868 MHz radios.
const goldenDigestFaults = "25a2de46b517ed98e8362c1bd85b79a6c0f6a2637413707b6af8784e966edafd"

func TestRunGoldenDigestFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	sc := DefaultScenario(7)
	sc.Days = 2
	plan := faultplan.New(3,
		faultplan.Event{Kind: faultplan.BadgeDeath, From: 34*time.Hour + 47*time.Minute, To: 38*time.Hour + 13*time.Minute, Badge: store.BadgeID(BadgeB)},
		faultplan.Event{Kind: faultplan.BadgeDeath, From: 41*time.Hour + 5*time.Minute, To: 41*time.Hour + 55*time.Minute, Badge: store.BadgeID(BadgeD)},
		faultplan.Event{Kind: faultplan.SyncDropout, From: 26 * time.Hour, To: 30 * time.Hour},
		faultplan.Event{Kind: faultplan.SyncDropout, From: 46*time.Hour + 30*time.Minute, To: 48 * time.Hour, Badge: store.BadgeID(BadgeA)},
	)
	reg := telemetry.NewRegistry()
	res, err := Run(Config{Seed: 7, Scenario: sc, Faults: plan, BLEDropProb: 0.2, Sub868DropProb: 0.1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"badge_down", "badge_revive"} {
		if n := reg.Counter("mission_fault_transitions_total", telemetry.L("kind", kind)).Value(); n != 2 {
			t.Errorf("%s transitions = %d, want 2 (both death windows hit a live badge)", kind, n)
		}
	}
	if got := missionDigest(t, res); got != goldenDigestFaults {
		t.Errorf("simulator output under faults changed:\n got %s\nwant %s", got, goldenDigestFaults)
	}
}
