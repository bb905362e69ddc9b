package proximity

import (
	"sort"
	"time"
)

// Community detection on the contact graph. In the badges' earlier
// commercial deployments the authors could "detect communities formed
// among employees"; the same capability over the crew's pair-time graph
// surfaces coalitions — one of the phenomena the paper's support-system
// vision wants monitored ("prevent long-lasting, disruptive phenomena such
// as alienation or forming of coalitions").

// Communities partitions the names into groups by asynchronous weighted
// label propagation on the pair-time graph: every node starts in its own
// community and, in deterministic order, adopts the incident label with
// the highest total weight (ties to the smallest label), until a fixed
// point or maxRounds. Asynchronous in-place updates avoid the two-node
// oscillation of the synchronous variant. Edges below minWeight are
// ignored, so casual contact does not glue everyone into one blob.
func Communities(weights map[Pair]time.Duration, names []string, minWeight time.Duration, maxRounds int) [][]string {
	if maxRounds <= 0 {
		maxRounds = 32
	}
	idx := make(map[string]int, len(names))
	ordered := append([]string{}, names...)
	sort.Strings(ordered)
	for i, n := range ordered {
		idx[n] = i
	}
	n := len(ordered)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for pair, d := range weights {
		if d < minWeight {
			continue
		}
		i, ok1 := idx[pair[0]]
		j, ok2 := idx[pair[1]]
		if !ok1 || !ok2 || i == j {
			continue
		}
		w[i][j] += d.Seconds()
		w[j][i] += d.Seconds()
	}

	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for i := 0; i < n; i++ {
			// Sum incident weight per neighbour label.
			score := make(map[int]float64)
			hasNeighbor := false
			for j := 0; j < n; j++ {
				if w[i][j] > 0 {
					score[label[j]] += w[i][j]
					hasNeighbor = true
				}
			}
			if !hasNeighbor {
				continue // isolates keep their own label
			}
			best := label[i]
			bestScore := score[label[i]]
			for l, s := range score {
				if s > bestScore || (s == bestScore && l < best) {
					best, bestScore = l, s
				}
			}
			if best != label[i] {
				label[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	groups := make(map[int][]string)
	for i, l := range label {
		groups[l] = append(groups[l], ordered[i])
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}
