package stats

import (
	"errors"
	"math"
	"strings"
)

// ErrBadBounds is returned when grid bounds are invalid.
var ErrBadBounds = errors.New("stats: invalid grid bounds")

// Grid2D is a dense 2-D accumulation grid used for position heatmaps
// (Fig. 3 of the paper: 28 cm x 28 cm cells, log-scale rendering).
type Grid2D struct {
	// MinX, MinY anchor the grid; CellSize is the square cell edge length
	// in the same units as the coordinates (meters in the habitat model).
	MinX, MinY float64
	CellSize   float64
	NX, NY     int
	Cells      []float64 // row-major: Cells[y*NX+x]
}

// NewGrid2D builds a grid covering [minX, minX+nx*cell) x [minY, minY+ny*cell).
func NewGrid2D(minX, minY, cell float64, nx, ny int) (*Grid2D, error) {
	if cell <= 0 || nx <= 0 || ny <= 0 {
		return nil, ErrBadBounds
	}
	return &Grid2D{
		MinX: minX, MinY: minY, CellSize: cell,
		NX: nx, NY: ny,
		Cells: make([]float64, nx*ny),
	}, nil
}

// Add accumulates weight w at position (x, y). Out-of-range positions are
// clamped to the border cells so that wall-adjacent samples are not lost.
func (g *Grid2D) Add(x, y, w float64) {
	cx := int((x - g.MinX) / g.CellSize)
	cy := int((y - g.MinY) / g.CellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.NX {
		cx = g.NX - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.NY {
		cy = g.NY - 1
	}
	g.Cells[cy*g.NX+cx] += w
}

// At returns the accumulated weight of cell (cx, cy), or 0 if out of range.
func (g *Grid2D) At(cx, cy int) float64 {
	if cx < 0 || cx >= g.NX || cy < 0 || cy >= g.NY {
		return 0
	}
	return g.Cells[cy*g.NX+cx]
}

// Total returns the sum over all cells.
func (g *Grid2D) Total() float64 {
	var t float64
	for _, c := range g.Cells {
		t += c
	}
	return t
}

// LogScaled returns a copy of the grid with cells mapped through
// log10(1 + v), the paper's heatmap scale.
func (g *Grid2D) LogScaled() *Grid2D {
	out := &Grid2D{
		MinX: g.MinX, MinY: g.MinY, CellSize: g.CellSize,
		NX: g.NX, NY: g.NY,
		Cells: make([]float64, len(g.Cells)),
	}
	for i, c := range g.Cells {
		out.Cells[i] = math.Log10(1 + c)
	}
	return out
}

// Render draws the grid as ASCII art with a 10-level ramp, darkest for the
// highest cells. Rows are emitted top (max y) to bottom.
func (g *Grid2D) Render() string {
	const ramp = " .:-=+*#%@"
	var mx float64
	for _, c := range g.Cells {
		if c > mx {
			mx = c
		}
	}
	var b strings.Builder
	for cy := g.NY - 1; cy >= 0; cy-- {
		for cx := 0; cx < g.NX; cx++ {
			v := g.Cells[cy*g.NX+cx]
			level := 0
			if mx > 0 {
				level = int(float64(len(ramp)-1) * v / mx)
			}
			b.WriteByte(ramp[level])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
