// Package pipeline implements tf.Data-style input pipelines over goroutines:
// Interleave over a cycle of sub-streams, Shuffle with a bounded buffer,
// Batch and Prefetch. These are the combinators the paper relies on to feed
// the 3D U-Net ("reading the files for binarization can be parallelized
// using interleave functions, while the binarization process can be mapped
// over the read data; in addition, the dataset can be pre-fetched"); the
// mapping is the producer passed to FromFunc.
package pipeline

import (
	"math/rand"
	"sync"
)

// Iterator yields elements until exhausted. Close releases background
// resources; it must be safe to call multiple times and after exhaustion.
type Iterator[T any] interface {
	Next() (T, bool)
	Close()
}

// Dataset is a re-openable stream of elements.
type Dataset[T any] struct {
	open func() Iterator[T]
}

// New wraps an iterator factory as a Dataset.
func New[T any](open func() Iterator[T]) Dataset[T] { return Dataset[T]{open: open} }

// Iterate opens a fresh iterator over the dataset.
func (d Dataset[T]) Iterate() Iterator[T] { return d.open() }

// Collect drains the dataset into a slice.
func (d Dataset[T]) Collect() []T {
	it := d.Iterate()
	defer it.Close()
	var out []T
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Count drains the dataset and returns the number of elements.
func (d Dataset[T]) Count() int {
	it := d.Iterate()
	defer it.Close()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// funcIterator adapts a next function with an optional close hook.
type funcIterator[T any] struct {
	next  func() (T, bool)
	close func()
	done  bool
}

func (it *funcIterator[T]) Next() (T, bool) {
	if it.done {
		var zero T
		return zero, false
	}
	v, ok := it.next()
	if !ok {
		it.done = true
	}
	return v, ok
}

func (it *funcIterator[T]) Close() {
	if it.close != nil {
		it.close()
		it.close = nil
	}
	it.done = true
}

// FromSlice returns a dataset over the elements of xs.
func FromSlice[T any](xs []T) Dataset[T] {
	return New(func() Iterator[T] {
		i := 0
		return &funcIterator[T]{next: func() (T, bool) {
			if i >= len(xs) {
				var zero T
				return zero, false
			}
			v := xs[i]
			i++
			return v, true
		}}
	})
}

// FromFunc returns a dataset of n elements produced by f(index).
func FromFunc[T any](n int, f func(i int) T) Dataset[T] {
	return New(func() Iterator[T] {
		i := 0
		return &funcIterator[T]{next: func() (T, bool) {
			if i >= n {
				var zero T
				return zero, false
			}
			v := f(i)
			i++
			return v, true
		}}
	})
}

// Interleave maps each element of d to a sub-dataset and interleaves up to
// cycle sub-streams round-robin, like tf.data's interleave(cycle_length=N).
func Interleave[T, U any](d Dataset[T], cycle int, f func(T) Dataset[U]) Dataset[U] {
	if cycle < 1 {
		cycle = 1
	}
	return New(func() Iterator[U] {
		src := d.Iterate()
		active := make([]Iterator[U], 0, cycle)
		pos := 0
		refill := func() {
			for len(active) < cycle {
				v, ok := src.Next()
				if !ok {
					return
				}
				active = append(active, f(v).Iterate())
			}
		}
		return &funcIterator[U]{
			next: func() (U, bool) {
				for {
					refill()
					if len(active) == 0 {
						var zero U
						return zero, false
					}
					if pos >= len(active) {
						pos = 0
					}
					v, ok := active[pos].Next()
					if !ok {
						active[pos].Close()
						active = append(active[:pos], active[pos+1:]...)
						continue
					}
					pos++
					return v, true
				}
			},
			close: func() {
				for _, it := range active {
					it.Close()
				}
				src.Close()
			},
		}
	})
}

// Shuffle returns a dataset that yields elements in randomized order using a
// bounded reservoir of bufSize elements, like tf.data's shuffle(buffer_size).
func Shuffle[T any](d Dataset[T], bufSize int, seed int64) Dataset[T] {
	if bufSize < 1 {
		bufSize = 1
	}
	return New(func() Iterator[T] {
		src := d.Iterate()
		rng := rand.New(rand.NewSource(seed))
		buf := make([]T, 0, bufSize)
		filled := false
		return &funcIterator[T]{
			next: func() (T, bool) {
				if !filled {
					for len(buf) < bufSize {
						v, ok := src.Next()
						if !ok {
							break
						}
						buf = append(buf, v)
					}
					filled = true
				}
				if len(buf) == 0 {
					var zero T
					return zero, false
				}
				i := rng.Intn(len(buf))
				out := buf[i]
				if v, ok := src.Next(); ok {
					buf[i] = v
				} else {
					buf[i] = buf[len(buf)-1]
					buf = buf[:len(buf)-1]
				}
				return out, true
			},
			close: src.Close,
		}
	})
}

// Batch groups consecutive elements into slices of at most size elements;
// the final batch may be smaller unless dropRemainder is set.
func Batch[T any](d Dataset[T], size int, dropRemainder bool) Dataset[[]T] {
	if size < 1 {
		size = 1
	}
	return New(func() Iterator[[]T] {
		src := d.Iterate()
		return &funcIterator[[]T]{
			next: func() ([]T, bool) {
				batch := make([]T, 0, size)
				for len(batch) < size {
					v, ok := src.Next()
					if !ok {
						break
					}
					batch = append(batch, v)
				}
				if len(batch) == 0 || (dropRemainder && len(batch) < size) {
					return nil, false
				}
				return batch, true
			},
			close: src.Close,
		}
	})
}

// Prefetch decouples producer and consumer with a background goroutine and a
// buffer of depth elements, like tf.data's prefetch(depth).
func Prefetch[T any](d Dataset[T], depth int) Dataset[T] {
	if depth < 1 {
		depth = 1
	}
	return New(func() Iterator[T] {
		src := d.Iterate()
		out := make(chan T, depth)
		stop := make(chan struct{})
		go func() {
			defer close(out)
			for {
				v, ok := src.Next()
				if !ok {
					return
				}
				select {
				case out <- v:
				case <-stop:
					return
				}
			}
		}()
		var once sync.Once
		return &funcIterator[T]{
			next: func() (T, bool) {
				v, ok := <-out
				return v, ok
			},
			close: func() {
				once.Do(func() {
					close(stop)
					go func() {
						for range out {
						}
						src.Close()
					}()
				})
			},
		}
	})
}
