// Package pipeline implements tf.Data-style input pipelines: re-openable
// datasets composed from FromSlice, Shuffle with a bounded buffer, and
// Batch. Training reads its in-memory samples through FromSlice → Shuffle
// → Batch (train.Session), so one epoch's batch order is determined by its
// shuffle seed alone.
package pipeline

import "math/rand"

// Iterator yields elements until exhausted. Close releases its source; it
// must be safe to call multiple times and after exhaustion.
type Iterator[T any] interface {
	Next() (T, bool)
	Close()
}

// Dataset is a re-openable stream of elements.
type Dataset[T any] struct {
	open func() Iterator[T]
}

// Iterate opens a fresh iterator over the dataset.
func (d Dataset[T]) Iterate() Iterator[T] { return d.open() }

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
	return Dataset[T]{open: func() Iterator[T] {
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
	}}
}

// Shuffle returns a dataset that yields elements in randomized order using a
// bounded reservoir of bufSize elements, like tf.data's shuffle(buffer_size).
func Shuffle[T any](d Dataset[T], bufSize int, seed int64) Dataset[T] {
	if bufSize < 1 {
		bufSize = 1
	}
	return Dataset[T]{open: func() Iterator[T] {
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
	}}
}

// Batch groups consecutive elements into slices of at most size elements;
// the final batch may be smaller unless dropRemainder is set.
func Batch[T any](d Dataset[T], size int, dropRemainder bool) Dataset[[]T] {
	if size < 1 {
		size = 1
	}
	return Dataset[[]T]{open: func() Iterator[[]T] {
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
	}}
}
