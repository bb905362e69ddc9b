package habitat

import (
	"testing"
	"testing/quick"

	"icares/internal/geometry"
	"icares/internal/stats"
)

// bruteWallLoss is the reference WallLossDB: Segment.Intersects against
// every wall, in wall order, with no prefilter.
func bruteWallLoss(h *Habitat, p, q geometry.Point) float64 {
	ray := geometry.Segment{A: p, B: q}
	var loss float64
	for _, w := range h.walls {
		if ray.Intersects(w.Seg) {
			loss += w.Material.AttenuationDB()
		}
	}
	return loss
}

// irregularPlan is a Builder habitat whose wall coordinates are not exact
// binary fractions, with doors on vertical and horizontal walls.
func irregularPlan(t testing.TB) *Habitat {
	t.Helper()
	h, err := NewBuilder().
		AddRoom(Kitchen, geometry.Point{X: 0.1, Y: 0.2}, geometry.Point{X: 3.3, Y: 4.7}).
		AddRoom(Office, geometry.Point{X: 3.3, Y: 0.2}, geometry.Point{X: 7.9, Y: 4.7}).
		AddRoom(Gym, geometry.Point{X: 0.1, Y: 4.7}, geometry.Point{X: 7.9, Y: 9.1}).
		AddDoor(Kitchen, Office).
		AddDoor(Kitchen, Gym).
		AddDoor(Office, Gym).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// criticalCoords returns, per axis, the coordinates where the prefilter's
// decisions are closest: every wall end (door-gap ends and corners
// included), and each nudged by less than Intersects' tolerance, by less
// than the box pad, and by more than the pad.
func criticalCoords(h *Habitat) (xs, ys []float64) {
	nudges := []float64{0, 5e-13, -5e-13, 5e-10, -5e-10, 2e-9, -2e-9}
	for _, w := range h.walls {
		for _, p := range []geometry.Point{w.Seg.A, w.Seg.B} {
			for _, d := range nudges {
				xs = append(xs, p.X+d)
				ys = append(ys, p.Y+d)
			}
		}
	}
	return xs, ys
}

// randomRay draws a ray whose endpoints are anywhere in (or just outside)
// the plan; each coordinate is snapped to a critical coordinate half the
// time, so endpoints on wall lines, at wall ends and just past them, and
// rays collinear with walls come up often.
func randomRay(h *Habitat, xs, ys []float64, rng *stats.RNG) (geometry.Point, geometry.Point) {
	b := h.Bounds()
	coord := func(lo, hi float64, snaps []float64) float64 {
		if rng.Bool(0.5) {
			return snaps[rng.Intn(len(snaps))]
		}
		return rng.Range(lo-2, hi+2)
	}
	pt := func() geometry.Point {
		return geometry.Point{X: coord(b.Min.X, b.Max.X, xs), Y: coord(b.Min.Y, b.Max.Y, ys)}
	}
	p := pt()
	if rng.Bool(0.05) {
		return p, p
	}
	return p, pt()
}

func TestWallLossDBMatchesBruteForce(t *testing.T) {
	plans := []struct {
		name string
		h    *Habitat
	}{
		{"standard", Standard()},
		{"builder", irregularPlan(t)},
	}
	for _, pl := range plans {
		h := pl.h
		check := func(p, q geometry.Point) bool {
			got, want := h.WallLossDB(p, q), bruteWallLoss(h, p, q)
			if got != want {
				t.Errorf("%s: WallLossDB(%v, %v) = %v, brute force %v", pl.name, p, q, got, want)
			}
			return got == want
		}

		// Hand-picked rays around every wall: for each wall end (door-gap
		// ends and room corners among them) and each nudge, rays through
		// it, along the wall's line, ending on it, and of zero length.
		xs, ys := criticalCoords(h)
		for i := range xs {
			c := geometry.Point{X: xs[i], Y: ys[i]}
			for _, d := range []geometry.Point{{X: 1}, {Y: 1}, {X: 1, Y: 1}, {X: 1, Y: -1}, {X: 0.37, Y: 2.9}} {
				check(c.Sub(d), c.Add(d)) // through the point
				check(c, c.Add(d))        // ending on it
				check(c.Add(d), c)        // starting from it
			}
			check(c, c) // zero length
			// Collinear with the horizontal and vertical wall lines through
			// the point, overlapping walls, gaps and wall ends.
			check(geometry.Point{X: c.X - 3, Y: c.Y}, geometry.Point{X: c.X + 0.25, Y: c.Y})
			check(geometry.Point{X: c.X, Y: c.Y - 0.25}, geometry.Point{X: c.X, Y: c.Y + 3})
		}

		// Random rays.
		f := func(seed uint64) bool {
			rng := stats.NewRNG(seed)
			for i := 0; i < 200; i++ {
				if p, q := randomRay(h, xs, ys, rng); !check(p, q) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", pl.name, err)
		}
	}
}

// BenchmarkWallLossDB measures the wall test on rays between random points
// of random rooms of the standard plan, the shape of beacon and badge-to-
// badge packets in the simulator.
func BenchmarkWallLossDB(b *testing.B) {
	h := Standard()
	rng := stats.NewRNG(1)
	ids := h.RoomIDs()
	rays := make([][2]geometry.Point, 1024)
	for i := range rays {
		for j := range rays[i] {
			p, err := h.RandomPointIn(ids[rng.Intn(len(ids))], 0.3, rng)
			if err != nil {
				b.Fatal(err)
			}
			rays[i][j] = p
		}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := rays[i%len(rays)]
		sink += h.WallLossDB(r[0], r[1])
	}
	_ = sink
}
