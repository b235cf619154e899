package tensor

import "slices"

// Owned is a tensor buffer that belongs to one long-lived owner — a layer
// block, a network — instead of to the garbage collector: laid out by the first call that needs it, grown to the largest
// volume ever asked for, and resliced (never reallocated) afterwards. An
// owner whose shapes repeat from step to step therefore allocates nothing in
// steady state, and the Go runtime never zeroes a fresh activation for it.
// The zero value is ready to use. An Owned is not safe for concurrent use.
type Owned struct {
	t   *Tensor   // header handed out by the last Shaped call
	buf []float32 // full backing, len == cap
}

// Shaped returns the owner's tensor laid out as shape. The contents are
// UNDEFINED — whatever the buffer's last user left there — so the caller
// must write every element before reading any. The result aliases every
// tensor earlier Shaped calls returned, and stays valid until the next
// Shaped call with a different shape or Release.
func (o *Owned) Shaped(shape ...int) *Tensor {
	if o.t != nil && slices.Equal(o.t.shape, shape) {
		return o.t
	}
	// Only the copy may escape (checkShape formats it when it panics), or
	// every call, the steady-state ones included, would heap-allocate its
	// variadic argument.
	dims := append([]int(nil), shape...)
	n := checkShape(dims)
	if n > len(o.buf) {
		o.buf = make([]float32, n)
	}
	o.t = &Tensor{
		shape:   dims,
		strides: computeStrides(dims),
		data:    o.buf[:n:n],
	}
	return o.t
}

// Release drops the buffer for the garbage collector; the next Shaped lays
// it out afresh.
func (o *Owned) Release() { *o = Owned{} }
