package cube

import "fmt"

// Block describes a contiguous index interval [Lo, Hi) of one axis owned by
// one processor of a task group.
type Block struct {
	Lo, Hi int
}

// Size returns the number of indices in the block.
func (b Block) Size() int { return b.Hi - b.Lo }

// Contains reports whether idx falls in the block.
func (b Block) Contains(idx int) bool { return idx >= b.Lo && idx < b.Hi }

// BlockPartition splits n indices into p near-equal contiguous blocks, the
// paper's even workload division. The first n%p blocks get one extra
// element. p must be positive.
func BlockPartition(n, p int) []Block {
	if p <= 0 {
		panic(fmt.Sprintf("cube: partition into %d parts", p))
	}
	blocks := make([]Block, p)
	base := n / p
	rem := n % p
	lo := 0
	for i := 0; i < p; i++ {
		sz := base
		if i < rem {
			sz++
		}
		blocks[i] = Block{Lo: lo, Hi: lo + sz}
		lo += sz
	}
	return blocks
}

// SliceAxis0 returns a copy of the sub-cube rows [blk.Lo, blk.Hi) along
// axis 0. Axis 0 is the partitioned axis for every task in the paper
// (range for Doppler filtering, Doppler for everything downstream), so the
// owned slab is always contiguous.
func (c *Cube) SliceAxis0(blk Block) *Cube {
	if blk.Lo < 0 || blk.Hi > c.Dim[0] || blk.Lo > blk.Hi {
		panic(fmt.Sprintf("cube: slice %v of dim0 %d", blk, c.Dim[0]))
	}
	out := New(c.Axes, blk.Size(), c.Dim[1], c.Dim[2])
	stride := c.Dim[1] * c.Dim[2]
	copy(out.Data, c.Data[blk.Lo*stride:blk.Hi*stride])
	return out
}

// ViewAxis0 returns rows [blk.Lo, blk.Hi) along axis 0 as a cube sharing
// c's storage: writes through either are seen by both. It is SliceAxis0
// without the copy, for a sender that hands out rows of a buffer it keeps.
func (c *Cube) ViewAxis0(blk Block) *Cube {
	if blk.Lo < 0 || blk.Hi > c.Dim[0] || blk.Lo > blk.Hi {
		panic(fmt.Sprintf("cube: view %v of dim0 %d", blk, c.Dim[0]))
	}
	stride := c.Dim[1] * c.Dim[2]
	return &Cube{Axes: c.Axes, Dim: [3]int{blk.Size(), c.Dim[1], c.Dim[2]}, Data: c.Data[blk.Lo*stride : blk.Hi*stride]}
}

// PasteAxis0 writes sub (a slab of rows along axis 0) back into c at the
// given block.
func (c *Cube) PasteAxis0(blk Block, sub *Cube) {
	if sub.Dim[0] != blk.Size() || sub.Dim[1] != c.Dim[1] || sub.Dim[2] != c.Dim[2] {
		panic(fmt.Sprintf("cube: paste %v into block %v of %v", sub, blk, c))
	}
	stride := c.Dim[1] * c.Dim[2]
	copy(c.Data[blk.Lo*stride:blk.Hi*stride], sub.Data)
}

// GatherAxis0 returns a new cube containing only the listed axis-0 indices,
// in the listed order. This is the paper's "data collection": selecting the
// range-sample subsets that the weight-computation tasks need before
// sending, to avoid communicating redundant data.
func (c *Cube) GatherAxis0(idx []int) *Cube {
	out := New(c.Axes, len(idx), c.Dim[1], c.Dim[2])
	stride := c.Dim[1] * c.Dim[2]
	for o, i := range idx {
		if i < 0 || i >= c.Dim[0] {
			panic(fmt.Sprintf("cube: gather index %d of dim0 %d", i, c.Dim[0]))
		}
		copy(out.Data[o*stride:(o+1)*stride], c.Data[i*stride:(i+1)*stride])
	}
	return out
}

// SliceAxis0 returns a copy of the sub-cube rows [blk.Lo, blk.Hi) along
// axis 0 of a real cube.
func (c *RealCube) SliceAxis0(blk Block) *RealCube {
	if blk.Lo < 0 || blk.Hi > c.Dim[0] || blk.Lo > blk.Hi {
		panic(fmt.Sprintf("cube: slice %v of dim0 %d", blk, c.Dim[0]))
	}
	out := NewReal(c.Axes, blk.Size(), c.Dim[1], c.Dim[2])
	stride := c.Dim[1] * c.Dim[2]
	copy(out.Data, c.Data[blk.Lo*stride:blk.Hi*stride])
	return out
}

// ViewAxis0 returns rows [blk.Lo, blk.Hi) along axis 0 of a real cube,
// sharing its storage.
func (c *RealCube) ViewAxis0(blk Block) *RealCube {
	if blk.Lo < 0 || blk.Hi > c.Dim[0] || blk.Lo > blk.Hi {
		panic(fmt.Sprintf("cube: view %v of dim0 %d", blk, c.Dim[0]))
	}
	stride := c.Dim[1] * c.Dim[2]
	return &RealCube{Axes: c.Axes, Dim: [3]int{blk.Size(), c.Dim[1], c.Dim[2]}, Data: c.Data[blk.Lo*stride : blk.Hi*stride]}
}

// PasteAxis0 writes sub back into c at the given block.
func (c *RealCube) PasteAxis0(blk Block, sub *RealCube) {
	if sub.Dim[0] != blk.Size() || sub.Dim[1] != c.Dim[1] || sub.Dim[2] != c.Dim[2] {
		panic(fmt.Sprintf("cube: paste %v into block %v", sub.Dim, blk))
	}
	stride := c.Dim[1] * c.Dim[2]
	copy(c.Data[blk.Lo*stride:blk.Hi*stride], sub.Data)
}

// EvenlySpaced returns count indices evenly spread over [0, n); this is how
// the easy weight task draws its training range samples over the first
// third of the range extent.
func EvenlySpaced(n, count int) []int {
	if count <= 0 || n <= 0 {
		return nil
	}
	return AppendEvenlySpaced(make([]int, 0, min(count, n)), n, count)
}

// AppendEvenlySpaced appends EvenlySpaced(n, count) to dst and returns the
// extended slice — the form for a caller that reuses one index buffer.
func AppendEvenlySpaced(dst []int, n, count int) []int {
	if count <= 0 || n <= 0 {
		return dst
	}
	count = min(count, n)
	for i := 0; i < count; i++ {
		dst = append(dst, i*n/count)
	}
	return dst
}
