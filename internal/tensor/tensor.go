// Package tensor implements a minimal dense float32 N-dimensional array,
// the computational substrate for the pure-Go 3D CNN engine.
//
// Tensors are contiguous and row-major. The package favours explicit,
// allocation-conscious APIs: most operations have an in-place or
// destination-passing form so training loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense, row-major, float32 N-dimensional array.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New returns a zero-filled tensor with the given shape.
// New panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    make([]float32, n),
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    data,
	}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn returns a tensor with elements drawn from N(mean, std²) using rng.
func Randn(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()*std + mean)
	}
	return t
}

// TruncatedNormal returns a tensor with elements drawn from N(mean, std²)
// truncated to ±2 std, matching the paper's kernel initializer.
func TruncatedNormal(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		for {
			v := rng.NormFloat64()
			if v >= -2 && v <= 2 {
				t.data[i] = float32(v*std + mean)
				break
			}
		}
	}
	return t
}

// Uniform returns a tensor with elements drawn uniformly from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Strides returns the row-major strides. The returned slice must not be
// modified.
func (t *Tensor) Strides() []int { return t.strides }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the length of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a view of t with a new shape of equal volume. The data is
// shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    t.data,
	}
}

// View returns a tensor of the given shape over t's backing array starting
// at flat element offset off — a zero-copy window: mutating the view
// mutates t and vice versa. The window [off, off+volume) must lie inside
// t's data; View panics otherwise.
func (t *Tensor) View(off int, shape ...int) *Tensor {
	n := checkShape(shape)
	if off < 0 || off+n > len(t.data) {
		panic(fmt.Sprintf("tensor: view [%d, %d) outside backing of %d elements", off, off+n, len(t.data)))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    t.data[off : off+n : off+n],
	}
}

// Slice returns a zero-copy view of rows [lo, hi) along the leading
// dimension: for a [N, ...] tensor, Slice(lo, hi) is the [hi-lo, ...]
// sub-tensor sharing t's backing array. It panics unless
// 0 <= lo < hi <= Dim(0). This is what makes per-replica batch shards and
// full-volume patch extraction allocation-free.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if lo < 0 || hi <= lo || hi > t.shape[0] {
		panic(fmt.Sprintf("tensor: slice [%d, %d) outside leading dimension %d", lo, hi, t.shape[0]))
	}
	stride := t.strides[0]
	shape := append([]int{hi - lo}, t.shape[1:]...)
	return t.View(lo*stride, shape...)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool { return slices.Equal(t.shape, o.shape) }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders a compact description (shape and a few leading values).
func (t *Tensor) String() string {
	k := len(t.data)
	if k > 8 {
		k = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:k])
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (t *Tensor) IsFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
