package habitat

import (
	"fmt"
	"math"
	"sort"

	"icares/internal/geometry"
)

// StandardBeaconCount is the number of BLE beacons deployed during ICAres-1.
const StandardBeaconCount = 27

// DoorWidth is the doorway opening width in meters.
const DoorWidth = 1.0

// Standard builds the Lunares-like floor plan used throughout the
// reproduction: nine modules around a central atrium, metal walls, one door
// per module into the atrium, and 27 beacon sites (two in every module plus
// nine along the atrium).
//
// Layout (meters):
//
//	y=14 ┌────────┬────────┬────────┬────────┐
//	     │bedroom │kitchen │ office │workshop│
//	y=8  ├────────┴────────┴────────┴────────┤
//	     │              atrium               │
//	y=0  ├────────┬────────┬─────┬─────┬─────┤
//	     │ biolab │storage │restr│ gym │airlk│
//	y=-6 └────────┴────────┴─────┴─────┴─────┘
//	     x=0      6        12    15    18    24
func Standard() *Habitat {
	h := &Habitat{byID: make(map[RoomID]int)}

	addRoom := func(id RoomID, minX, minY, maxX, maxY float64) {
		h.byID[id] = len(h.rooms)
		h.rooms = append(h.rooms, Room{
			ID:     id,
			Name:   id.String(),
			Bounds: geometry.NewRect(geometry.Point{X: minX, Y: minY}, geometry.Point{X: maxX, Y: maxY}),
		})
	}

	addRoom(Atrium, 0, 0, 24, 8)
	addRoom(Bedroom, 0, 8, 6, 14)
	addRoom(Kitchen, 6, 8, 12, 14)
	addRoom(Office, 12, 8, 18, 14)
	addRoom(Workshop, 18, 8, 24, 14)
	addRoom(Biolab, 0, -6, 6, 0)
	addRoom(Storage, 6, -6, 12, 0)
	addRoom(Restroom, 12, -6, 15, 0)
	addRoom(Gym, 15, -6, 18, 0)
	addRoom(Airlock, 18, -6, 24, 0)

	// One door per module into the atrium, centered on the shared wall.
	for _, r := range h.rooms {
		if r.ID == Atrium {
			continue
		}
		b := r.Bounds
		var at geometry.Point
		if b.Min.Y >= 8 { // top row: door on y=8
			at = geometry.Point{X: (b.Min.X + b.Max.X) / 2, Y: 8}
		} else { // bottom row: door on y=0
			at = geometry.Point{X: (b.Min.X + b.Max.X) / 2, Y: 0}
		}
		h.doors = append(h.doors, Door{A: r.ID, B: Atrium, At: at})
	}

	h.buildWalls()
	h.placeBeacons()
	h.bounds = geometry.NewRect(geometry.Point{X: 0, Y: -6}, geometry.Point{X: 24, Y: 14})
	return h
}

// wallBoxPad pads each wall's bounding box for the WallLossDB prefilter. The
// prefilter is exact: whenever a ray's box misses a padded wall box,
// Segment.Intersects (tolerance 1e-12) would have rejected the wall too.
//
//   - Touches: Intersects accepts an endpoint touch only inside a box padded
//     by its tolerance. Float64 rounding is monotone, so the box padded by
//     1e-9 contains that box at every magnitude.
//   - Crossings: walls are axis-aligned, so Intersects' test of the ray's
//     endpoints against the wall's line is the sign of one exact difference,
//     and a crossing needs the ray's box to span that line. Past the wall's
//     end by more than the pad, each wall endpoint's orientation against the
//     ray is at least 1e-9·Δ (Δ: the ray's extent across the wall), while
//     its rounding error stays below 1e-12·Δ for coordinates within a
//     kilometre, so both wall endpoints land on one side of the ray.
const wallBoxPad = 1e-9

// buildWalls creates metal wall segments for every room boundary, leaving
// DoorWidth gaps at each door, and the padded wall boxes WallLossDB
// prefilters with. Every wall is part of a room edge, so axis-aligned.
func (h *Habitat) buildWalls() {
	for _, r := range h.rooms {
		for _, e := range r.Bounds.Edges() {
			// Collect doors lying on this edge.
			var gaps []geometry.Point
			for _, d := range h.doors {
				if d.A != r.ID && d.B != r.ID {
					continue
				}
				if pointOnSegment(e, d.At) {
					gaps = append(gaps, d.At)
				}
			}
			for _, seg := range splitAroundGaps(e, gaps, DoorWidth) {
				h.walls = append(h.walls, Wall{Seg: seg, Material: Metal})
				h.wallBoxes = append(h.wallBoxes, geometry.NewRect(seg.A, seg.B).Inset(-wallBoxPad))
			}
		}
	}
}

// pointOnSegment reports whether p lies on the axis-aligned segment s.
func pointOnSegment(s geometry.Segment, p geometry.Point) bool {
	const tol = 1e-9
	if math.Abs(s.A.Y-s.B.Y) < tol { // horizontal
		return math.Abs(p.Y-s.A.Y) < tol &&
			p.X >= math.Min(s.A.X, s.B.X)-tol && p.X <= math.Max(s.A.X, s.B.X)+tol
	}
	if math.Abs(s.A.X-s.B.X) < tol { // vertical
		return math.Abs(p.X-s.A.X) < tol &&
			p.Y >= math.Min(s.A.Y, s.B.Y)-tol && p.Y <= math.Max(s.A.Y, s.B.Y)+tol
	}
	return false
}

// splitAroundGaps splits an axis-aligned segment into sub-segments that
// exclude width-wide gaps centered at each gap point.
func splitAroundGaps(s geometry.Segment, gaps []geometry.Point, width float64) []geometry.Segment {
	if len(gaps) == 0 {
		return []geometry.Segment{s}
	}
	horizontal := math.Abs(s.A.Y-s.B.Y) < 1e-9
	coord := func(p geometry.Point) float64 {
		if horizontal {
			return p.X
		}
		return p.Y
	}
	mk := func(lo, hi float64) geometry.Segment {
		if horizontal {
			return geometry.Segment{A: geometry.Point{X: lo, Y: s.A.Y}, B: geometry.Point{X: hi, Y: s.A.Y}}
		}
		return geometry.Segment{A: geometry.Point{X: s.A.X, Y: lo}, B: geometry.Point{X: s.A.X, Y: hi}}
	}
	lo := math.Min(coord(s.A), coord(s.B))
	hi := math.Max(coord(s.A), coord(s.B))
	cuts := make([]float64, 0, len(gaps))
	for _, g := range gaps {
		cuts = append(cuts, coord(g))
	}
	sort.Float64s(cuts)
	var out []geometry.Segment
	cur := lo
	for _, c := range cuts {
		gLo, gHi := c-width/2, c+width/2
		if gLo > cur {
			out = append(out, mk(cur, gLo))
		}
		if gHi > cur {
			cur = gHi
		}
	}
	if cur < hi {
		out = append(out, mk(cur, hi))
	}
	return out
}

// placeBeacons deploys the 27 standard beacon sites: two per module at the
// quarter points of the room diagonal, plus nine spread along the atrium.
func (h *Habitat) placeBeacons() {
	id := 1
	for _, r := range h.rooms {
		if r.ID == Atrium {
			continue
		}
		b := r.Bounds
		in := b.Inset(0.8)
		for _, t := range []float64{0.25, 0.75} {
			h.beacons = append(h.beacons, BeaconSite{
				ID:   id,
				Pos:  in.Min.Lerp(in.Max, t),
				Room: r.ID,
			})
			id++
		}
	}
	// Nine atrium beacons along the centerline.
	atrium, err := h.Room(Atrium)
	if err != nil {
		// Standard always adds the atrium; reaching here is a programming
		// error during construction.
		panic(fmt.Sprintf("habitat: standard layout missing atrium: %v", err))
	}
	// Staggered rows: colinear placement would leave the cross-axis
	// coordinate unobservable (mirror ambiguity), which is why the paper
	// stresses "the carefully selected placement of the beacons".
	cy := atrium.Bounds.Center().Y
	for i := 0; i < 9; i++ {
		x := atrium.Bounds.Min.X + (float64(i)+0.5)*atrium.Bounds.Width()/9
		y := cy - 2
		if i%2 == 1 {
			y = cy + 2
		}
		h.beacons = append(h.beacons, BeaconSite{
			ID:   id,
			Pos:  geometry.Point{X: x, Y: y},
			Room: Atrium,
		})
		id++
	}
}
