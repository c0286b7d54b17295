// Package cube implements the 3-dimensional complex data cubes that flow
// through the STAP pipeline, together with the layout reorganizations and
// partitionings the paper's inter-task redistribution performs.
//
// A Cube is stored row-major over its three axes: axis 0 is slowest, axis 2
// is unit stride. The axis labels record the semantic order (e.g. the raw
// CPI cube is Range x Channel x Pulse with pulses unit stride, matching the
// corner-turned RTMCARM layout; the beamforming input is reorganized to
// Doppler x Range x Channel). Reorder performs the strided copies whose
// cache cost the paper identifies as a major part of communication
// overhead.
package cube

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Axis labels a cube dimension with its radar meaning.
type Axis int

const (
	// Range indexes range cells (K).
	Range Axis = iota
	// Channel indexes receive channels (J, or 2J after PRI staggering).
	Channel
	// Pulse indexes pulses before Doppler filtering (N).
	Pulse
	// Doppler indexes Doppler bins after filtering (N).
	Doppler
	// Beam indexes receive beams after beamforming (M).
	Beam
)

// String returns the axis name.
func (a Axis) String() string {
	switch a {
	case Range:
		return "range"
	case Channel:
		return "channel"
	case Pulse:
		return "pulse"
	case Doppler:
		return "doppler"
	case Beam:
		return "beam"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Order is the semantic ordering of a cube's three dimensions.
type Order [3]Axis

// String renders e.g. "range×channel×pulse".
func (o Order) String() string {
	return o[0].String() + "×" + o[1].String() + "×" + o[2].String()
}

// IndexOf returns the position of axis a in the order, or -1.
func (o Order) IndexOf(a Axis) int {
	for i, x := range o {
		if x == a {
			return i
		}
	}
	return -1
}

// Cube is a dense 3-D complex array. Dim[2] is unit stride.
type Cube struct {
	Axes Order
	Dim  [3]int
	Data []complex128
}

// New allocates a zeroed cube with the given axis order and dimensions.
func New(axes Order, d0, d1, d2 int) *Cube {
	if d0 < 0 || d1 < 0 || d2 < 0 {
		panic(fmt.Sprintf("cube: invalid dims %d,%d,%d", d0, d1, d2))
	}
	return &Cube{
		Axes: axes,
		Dim:  [3]int{d0, d1, d2},
		Data: make([]complex128, d0*d1*d2),
	}
}

// CheckShape reports whether c is a well-formed cube of exactly the given
// axis order and dimensions, its Data holding d0·d1·d2 samples — the check
// for a cube decoded from outside the program (a network frame, a
// recording), whose Dim and Data need not agree.
func (c *Cube) CheckShape(axes Order, dim [3]int) error {
	switch {
	case c == nil:
		return fmt.Errorf("cube: nil cube")
	case c.Axes != axes || c.Dim != dim:
		return fmt.Errorf("cube: shape %v %v, want %v %v", c.Axes, c.Dim, axes, dim)
	case dim[0] < 0 || dim[1] < 0 || dim[2] < 0 || len(c.Data) != dim[0]*dim[1]*dim[2]:
		return fmt.Errorf("cube: %d samples for shape %v", len(c.Data), dim)
	}
	return nil
}

// Len returns the total element count.
func (c *Cube) Len() int { return len(c.Data) }

// Bytes returns the in-memory size of the cube payload, using the paper's
// 8-byte complex convention (two 32-bit floats on the Paragon).
func (c *Cube) Bytes() int64 { return int64(len(c.Data)) * 8 }

// At returns the element at (i, j, k) in the cube's storage order.
func (c *Cube) At(i, j, k int) complex128 {
	return c.Data[(i*c.Dim[1]+j)*c.Dim[2]+k]
}

// Set assigns the element at (i, j, k).
func (c *Cube) Set(i, j, k int, v complex128) {
	c.Data[(i*c.Dim[1]+j)*c.Dim[2]+k] = v
}

// Vec returns the mutable unit-stride vector at (i, j, ·).
func (c *Cube) Vec(i, j int) []complex128 {
	off := (i*c.Dim[1] + j) * c.Dim[2]
	return c.Data[off : off+c.Dim[2]]
}

// Clone returns a deep copy.
func (c *Cube) Clone() *Cube {
	out := New(c.Axes, c.Dim[0], c.Dim[1], c.Dim[2])
	copy(out.Data, c.Data)
	return out
}

// DimOf returns the extent of the given semantic axis. Panics if the axis
// is not present.
func (c *Cube) DimOf(a Axis) int {
	i := c.Axes.IndexOf(a)
	if i < 0 {
		panic(fmt.Sprintf("cube: axis %v not in %v", a, c.Axes))
	}
	return c.Dim[i]
}

// Reorder returns a new cube whose storage order matches want, copying
// every element. This is the data-reorganization step the paper performs
// before inter-task communication (e.g. K×2J×N → N×K×2J ahead of
// beamforming); the strided access pattern is exactly what made it
// cache-expensive on the Paragon.
func (c *Cube) Reorder(want Order) *Cube {
	perm, ok := permutation(c.Axes, want)
	if !ok {
		panic(fmt.Sprintf("cube: cannot reorder %v to %v", c.Axes, want))
	}
	if perm == [3]int{0, 1, 2} {
		return c.Clone()
	}
	var nd [3]int
	for to := 0; to < 3; to++ {
		nd[to] = c.Dim[perm[to]]
	}
	out := New(want, nd[0], nd[1], nd[2])
	var idx [3]int // index in source order
	d := c.Dim
	for idx[0] = 0; idx[0] < d[0]; idx[0]++ {
		for idx[1] = 0; idx[1] < d[1]; idx[1]++ {
			base := (idx[0]*d[1] + idx[1]) * d[2]
			for k := 0; k < d[2]; k++ {
				idx[2] = k
				out.Set(idx[perm[0]], idx[perm[1]], idx[perm[2]], c.Data[base+k])
			}
		}
	}
	return out
}

// permutation computes perm such that want[i] == from[perm[i]].
func permutation(from, want Order) ([3]int, bool) {
	var perm [3]int
	for i, a := range want {
		j := from.IndexOf(a)
		if j < 0 {
			return perm, false
		}
		perm[i] = j
	}
	return perm, true
}

// Equalish reports element-wise agreement within tol. Axis orders must
// match exactly.
func (c *Cube) Equalish(o *Cube, tol float64) bool {
	if c.Axes != o.Axes || c.Dim != o.Dim {
		return false
	}
	for i := range c.Data {
		if cmplx.Abs(c.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise |difference| between two
// cubes of identical shape, +Inf on shape mismatch.
func (c *Cube) MaxAbsDiff(o *Cube) float64 {
	if c.Axes != o.Axes || c.Dim != o.Dim {
		return math.Inf(1)
	}
	m := 0.0
	for i := range c.Data {
		if d := cmplx.Abs(c.Data[i] - o.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Power returns the total energy sum |x|^2 over the cube.
func (c *Cube) Power() float64 {
	var s float64
	for _, v := range c.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// String summarizes shape and order.
func (c *Cube) String() string {
	return fmt.Sprintf("Cube[%v %dx%dx%d]", c.Axes, c.Dim[0], c.Dim[1], c.Dim[2])
}

// RealCube is a dense 3-D real array with the same layout conventions as
// Cube; it carries the post-pulse-compression power data (the paper moves
// to the real power domain after pulse compression, halving data size).
type RealCube struct {
	Axes Order
	Dim  [3]int
	Data []float64
}

// NewReal allocates a zeroed real cube.
func NewReal(axes Order, d0, d1, d2 int) *RealCube {
	if d0 < 0 || d1 < 0 || d2 < 0 {
		panic(fmt.Sprintf("cube: invalid dims %d,%d,%d", d0, d1, d2))
	}
	return &RealCube{
		Axes: axes,
		Dim:  [3]int{d0, d1, d2},
		Data: make([]float64, d0*d1*d2),
	}
}

// At returns the element at (i, j, k).
func (c *RealCube) At(i, j, k int) float64 {
	return c.Data[(i*c.Dim[1]+j)*c.Dim[2]+k]
}

// Set assigns the element at (i, j, k).
func (c *RealCube) Set(i, j, k int, v float64) {
	c.Data[(i*c.Dim[1]+j)*c.Dim[2]+k] = v
}

// Vec returns the mutable unit-stride vector at (i, j, ·).
func (c *RealCube) Vec(i, j int) []float64 {
	off := (i*c.Dim[1] + j) * c.Dim[2]
	return c.Data[off : off+c.Dim[2]]
}

// Bytes returns the payload size (4-byte reals in the paper's arithmetic).
func (c *RealCube) Bytes() int64 { return int64(len(c.Data)) * 4 }

// Len returns the element count.
func (c *RealCube) Len() int { return len(c.Data) }

// Clone returns a deep copy.
func (c *RealCube) Clone() *RealCube {
	out := NewReal(c.Axes, c.Dim[0], c.Dim[1], c.Dim[2])
	copy(out.Data, c.Data)
	return out
}

// MaxAbsDiff returns the largest |difference| between two real cubes.
func (c *RealCube) MaxAbsDiff(o *RealCube) float64 {
	if c.Axes != o.Axes || c.Dim != o.Dim {
		return math.Inf(1)
	}
	m := 0.0
	for i := range c.Data {
		if d := math.Abs(c.Data[i] - o.Data[i]); d > m {
			m = d
		}
	}
	return m
}
