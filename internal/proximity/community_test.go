package proximity

import (
	"testing"
	"time"
)

func hours(h float64) time.Duration {
	return time.Duration(h * float64(time.Hour))
}

func TestCommunitiesTwoCliques(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E", "F"}
	w := map[Pair]time.Duration{
		// Clique 1: A, B, C strongly tied.
		MakePair("A", "B"): hours(10),
		MakePair("B", "C"): hours(10),
		MakePair("A", "C"): hours(10),
		// Clique 2: D, E, F strongly tied.
		MakePair("D", "E"): hours(10),
		MakePair("E", "F"): hours(10),
		MakePair("D", "F"): hours(10),
		// Weak bridge, below the threshold.
		MakePair("C", "D"): hours(0.5),
	}
	got := Communities(w, names, hours(1), 0)
	if len(got) != 2 {
		t.Fatalf("communities = %v", got)
	}
	if got[0][0] != "A" || len(got[0]) != 3 || len(got[1]) != 3 {
		t.Errorf("partition = %v", got)
	}
}

func TestCommunitiesBridgeAboveThresholdMerges(t *testing.T) {
	names := []string{"A", "B", "C", "D"}
	w := map[Pair]time.Duration{
		MakePair("A", "B"): hours(5),
		MakePair("C", "D"): hours(5),
		MakePair("B", "C"): hours(5), // strong bridge
	}
	got := Communities(w, names, time.Minute, 0)
	if len(got) != 1 || len(got[0]) != 4 {
		t.Errorf("chain should merge into one community: %v", got)
	}
}

func TestCommunitiesIsolatesStaySingleton(t *testing.T) {
	names := []string{"A", "B", "Z"}
	w := map[Pair]time.Duration{MakePair("A", "B"): hours(3)}
	got := Communities(w, names, time.Minute, 0)
	if len(got) != 2 {
		t.Fatalf("communities = %v", got)
	}
	found := false
	for _, g := range got {
		if len(g) == 1 && g[0] == "Z" {
			found = true
		}
	}
	if !found {
		t.Errorf("isolate not singleton: %v", got)
	}
}

func TestCommunitiesDeterministic(t *testing.T) {
	names := []string{"A", "B", "C", "D", "E"}
	w := map[Pair]time.Duration{
		MakePair("A", "B"): hours(2),
		MakePair("B", "C"): hours(2),
		MakePair("D", "E"): hours(2),
	}
	a := Communities(w, names, time.Minute, 0)
	b := Communities(w, names, time.Minute, 0)
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic partition")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic order")
			}
		}
	}
}

func TestCommunitiesEmptyGraph(t *testing.T) {
	got := Communities(nil, []string{"A", "B"}, time.Minute, 0)
	if len(got) != 2 {
		t.Errorf("empty graph = %v", got)
	}
}
