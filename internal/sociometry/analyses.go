package sociometry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"icares/internal/activity"
	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/localization"
	"icares/internal/stats"
)

// Fig2Rooms are the rooms shown in the paper's transition matrix: every
// module except the central atrium ("the main room adjacent to all other
// rooms is not considered") and the gym.
func Fig2Rooms() []habitat.RoomID {
	return []habitat.RoomID{
		habitat.Airlock, habitat.Bedroom, habitat.Biolab, habitat.Kitchen,
		habitat.Office, habitat.Restroom, habitat.Storage, habitat.Workshop,
	}
}

// TransitionMatrix is the Fig. 2 result: Counts[i][j] is the total number
// of passages from Rooms[i] to Rooms[j] across the crew.
type TransitionMatrix struct {
	Rooms  []habitat.RoomID
	Counts [][]int
}

// At returns the passage count from a to b (0 if either room is not in the
// matrix).
func (m TransitionMatrix) At(a, b habitat.RoomID) int {
	ia, ib := -1, -1
	for i, r := range m.Rooms {
		if r == a {
			ia = i
		}
		if r == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return 0
	}
	return m.Counts[ia][ib]
}

// Total returns the total passage count.
func (m TransitionMatrix) Total() int {
	var t int
	for _, row := range m.Counts {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// TopPairs returns the n most frequent passages, ties broken by room order.
func (m TransitionMatrix) TopPairs(n int) [][2]habitat.RoomID {
	type entry struct {
		from, to habitat.RoomID
		count    int
	}
	var all []entry
	for i, row := range m.Counts {
		for j, c := range row {
			if c > 0 {
				all = append(all, entry{m.Rooms[i], m.Rooms[j], c})
			}
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].count > all[b].count })
	if n > len(all) {
		n = len(all)
	}
	out := make([][2]habitat.RoomID, 0, n)
	for _, e := range all[:n] {
		out = append(out, [2]habitat.RoomID{e.from, e.to})
	}
	return out
}

// String renders the matrix like the paper's figure.
func (m TransitionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "orig\\dest")
	for _, r := range m.Rooms {
		fmt.Fprintf(&b, "%9s", truncate(r.String(), 8))
	}
	b.WriteByte('\n')
	for i, r := range m.Rooms {
		fmt.Fprintf(&b, "%-10s", truncate(r.String(), 9))
		for j := range m.Rooms {
			fmt.Fprintf(&b, "%9d", m.Counts[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Transitions computes the Fig. 2 matrix over the whole crew: passages
// between the listed rooms after removing atrium crossings, with the
// pipeline's dwell filter. The per-astronaut passage counts are computed in
// parallel and folded in crew order.
func (p *Pipeline) Transitions(rooms []habitat.RoomID) TransitionMatrix {
	p.beginAnalysis()
	defer p.endAnalysis()
	if rooms == nil {
		rooms = Fig2Rooms()
	}
	idx := make(map[habitat.RoomID]int, len(rooms))
	for i, r := range rooms {
		idx[r] = i
	}
	m := TransitionMatrix{Rooms: rooms, Counts: make([][]int, len(rooms))}
	for i := range m.Counts {
		m.Counts[i] = make([]int, len(rooms))
	}
	excluded := []habitat.RoomID{habitat.Atrium}
	for _, r := range p.src.Habitat.RoomIDs() {
		if _, shown := idx[r]; !shown && r != habitat.Atrium {
			excluded = append(excluded, r)
		}
	}
	perName := make([]map[[2]habitat.RoomID]int, len(p.src.Names))
	p.forEach(len(p.src.Names), func(i int) {
		ivs := localization.ExcludeRooms(p.Intervals(p.src.Names[i]), excluded...)
		perName[i] = localization.Transitions(ivs)
	})
	for _, counts := range perName {
		for pair, count := range counts {
			i, ok1 := idx[pair[0]]
			j, ok2 := idx[pair[1]]
			if ok1 && ok2 {
				m.Counts[i][j] += count
			}
		}
	}
	return m
}

// HeatmapCellSize is the paper's Fig. 3 granularity: 28 cm squares.
const HeatmapCellSize = 0.28

// Heatmap accumulates the astronaut's worn-time positions on the paper's
// grid, weighting each fix by the scan window length (seconds). Use
// Grid2D.LogScaled for the paper's logarithmic rendering.
func (p *Pipeline) Heatmap(name string, cellSize float64) (*stats.Grid2D, error) {
	if cellSize <= 0 {
		cellSize = HeatmapCellSize
	}
	b := p.src.Habitat.Bounds()
	nx := int(b.Width()/cellSize) + 1
	ny := int(b.Height()/cellSize) + 1
	grid, err := stats.NewGrid2D(b.Min.X, b.Min.Y, cellSize, nx, ny)
	if err != nil {
		return nil, err
	}
	w := p.locWindow.Seconds()
	for _, f := range p.Track(name) {
		grid.Add(f.Pos.X, f.Pos.Y, w)
	}
	return grid, nil
}

// WallMassFraction returns the share of the astronaut's heatmap dwell mass
// in cells within margin meters of a room wall — the quantitative
// companion to Fig. 3's visual finding: the impaired astronaut A "tended
// to stay in the middle of a room, usually did not approach corners", so
// A's wall mass is the crew minimum.
func (p *Pipeline) WallMassFraction(name string, margin float64) (float64, error) {
	if margin <= 0 {
		margin = 1.2
	}
	g, err := p.Heatmap(name, 0)
	if err != nil {
		return 0, err
	}
	hab := p.src.Habitat
	var nearWall float64
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			v := g.At(cx, cy)
			if v == 0 {
				continue
			}
			pt := geometry.Point{
				X: g.MinX + (float64(cx)+0.5)*g.CellSize,
				Y: g.MinY + (float64(cy)+0.5)*g.CellSize,
			}
			room, err := hab.Room(hab.RoomAt(pt))
			if err != nil {
				continue
			}
			in := room.Bounds.Inset(margin)
			if !(pt.X > in.Min.X && pt.X < in.Max.X && pt.Y > in.Min.Y && pt.Y < in.Max.Y) {
				nearWall += v
			}
		}
	}
	total := g.Total()
	if total == 0 {
		return 0, nil
	}
	return nearWall / total, nil
}

// WalkingByDay computes the Fig. 4 series for one astronaut. It shares the
// worn-filtered activity windows with WalkingFraction, so the daily series
// and the mission-level Table I column always apply the same worn-time
// filter.
func (p *Pipeline) WalkingByDay(name string) map[int]float64 {
	return activity.WalkingFractionByDay(p.walkingSamples(name))
}

// WalkingFraction computes the astronaut's whole-mission walking fraction
// (the Table I column) over the same worn-filtered windows as
// WalkingByDay — an unworn badge lying still must not deflate it.
func (p *Pipeline) WalkingFraction(name string) float64 {
	return activity.WalkingFraction(p.walkingSamples(name))
}

// StayStats summarizes room-stay durations for the crew — the text's
// "astronauts tended to stay at the biolab mostly about 2.5 h while the
// majority of stays at the office and the workshop lasted twice as much".
type StayStats struct {
	Room   habitat.RoomID
	Stays  int
	Mean   time.Duration
	Median time.Duration
}

// Stays computes per-room stay statistics across the crew, counting stays
// of at least minStay (use ~10 min to exclude hydration dashes and
// restroom visits, matching the text's focus on work stays).
func (p *Pipeline) Stays(minStay time.Duration) []StayStats {
	p.beginAnalysis()
	defer p.endAnalysis()
	// Derive the per-astronaut intervals in parallel; the accumulation
	// below stays sequential in crew order for deterministic output.
	p.forEachName(func(name string) { p.Intervals(name) })
	byRoom := make(map[habitat.RoomID][]float64)
	for _, name := range p.src.Names {
		for _, iv := range p.Intervals(name) {
			if iv.Duration() < minStay {
				continue
			}
			byRoom[iv.Room] = append(byRoom[iv.Room], iv.Duration().Seconds())
		}
	}
	rooms := make([]habitat.RoomID, 0, len(byRoom))
	for r := range byRoom {
		rooms = append(rooms, r)
	}
	sort.Slice(rooms, func(i, j int) bool { return rooms[i] < rooms[j] })
	out := make([]StayStats, 0, len(rooms))
	for _, r := range rooms {
		ds := byRoom[r]
		med, _ := stats.Median(ds)
		out = append(out, StayStats{
			Room:   r,
			Stays:  len(ds),
			Mean:   time.Duration(stats.Mean(ds) * float64(time.Second)),
			Median: time.Duration(med * float64(time.Second)),
		})
	}
	return out
}
