package icares

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenReports pins the sha256 of Report() for a seed-7, three-day mission
// under each assignment view. Every other report test compares two paths of
// one build (archive against resident, parallel against sequential, fold
// order against batch); this pins the bytes across builds, so a change meant
// to be behaviour-preserving cannot move every path at once unnoticed.
// The two views agree here because the day-6 badge swap falls after the
// third day. Update it only with a change that is meant to alter the report, and say so.
var goldenReports = map[AssignmentView]string{
	TrueAssignment:    "ba46549ea0e88625d827bdc88e24edf114ea1709c499c5252e975697b8801225",
	NominalAssignment: "ba46549ea0e88625d827bdc88e24edf114ea1709c499c5252e975697b8801225",
}

func TestReportGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	m, err := Simulate(Options{Seed: 7, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []AssignmentView{TrueAssignment, NominalAssignment} {
		p, err := m.Pipeline(view)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(p.Report()))
		if got := hex.EncodeToString(sum[:]); got != goldenReports[view] {
			t.Errorf("view %d: report changed:\n got %s\nwant %s", view, got, goldenReports[view])
		}
	}
}
