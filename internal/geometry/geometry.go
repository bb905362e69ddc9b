// Package geometry provides the 2-D primitives the habitat model and the RF
// propagation model are built on: points, segments, axis-aligned rectangles,
// and segment intersection.
//
// Coordinates are in meters throughout the icares codebase.
package geometry

import "math"

// Point is a 2-D point or vector.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Cross returns the z-component of the cross product of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance from p to q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Angle returns the angle of the vector p in radians, in (-pi, pi].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Unit returns p scaled to length 1; the zero vector is returned unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return p
	}
	return p.Scale(1 / n)
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Point
}

const eps = 1e-12

// orient returns >0 if c is left of ab, <0 if right, 0 if (nearly) collinear.
func orient(a, b, c Point) float64 {
	return b.Sub(a).Cross(c.Sub(a))
}

// onSegment reports whether collinear point p lies within segment s's box.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X)-eps <= p.X && p.X <= math.Max(s.A.X, s.B.X)+eps &&
		math.Min(s.A.Y, s.B.Y)-eps <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)+eps
}

// Intersects reports whether segments s and t share at least one point,
// including endpoint touches and collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)

	if ((d1 > eps && d2 < -eps) || (d1 < -eps && d2 > eps)) &&
		((d3 > eps && d4 < -eps) || (d3 < -eps && d4 > eps)) {
		return true
	}
	switch {
	case math.Abs(d1) <= eps && onSegment(t, s.A):
		return true
	case math.Abs(d2) <= eps && onSegment(t, s.B):
		return true
	case math.Abs(d3) <= eps && onSegment(s, t.A):
		return true
	case math.Abs(d4) <= eps && onSegment(s, t.B):
		return true
	}
	return false
}

// Rect is an axis-aligned rectangle with Min <= Max componentwise.
type Rect struct {
	Min, Max Point
}

// NewRect returns the axis-aligned rectangle spanned by any two corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p is inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-eps && p.X <= r.Max.X+eps &&
		p.Y >= r.Min.Y-eps && p.Y <= r.Max.Y+eps
}

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width and Height return the rectangle dimensions.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Clamp returns p clamped into r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Inset returns r shrunk by d on each side. If the result would be empty,
// a degenerate rectangle at the center is returned.
func (r Rect) Inset(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X + d, r.Min.Y + d},
		Max: Point{r.Max.X - d, r.Max.Y - d},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		c := r.Center()
		return Rect{Min: c, Max: c}
	}
	return out
}

// Edges returns the four boundary segments of r.
func (r Rect) Edges() []Segment {
	a := r.Min
	b := Point{r.Max.X, r.Min.Y}
	c := r.Max
	d := Point{r.Min.X, r.Max.Y}
	return []Segment{{a, b}, {b, c}, {c, d}, {d, a}}
}
