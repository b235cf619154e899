// Package online closes the train↔serve loop: corrected segmentations
// posted back by clients land in a bounded replay buffer, a background
// continual-learning controller fine-tunes a shadow model on replay slices
// mixed with the base dataset, and an eval gate promotes the shadow into
// the live inference server only when its held-out Dice clears the
// configured margin — with automatic rollback to the last good generation
// if post-promotion live quality regresses.
package online

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/volume"
)

// ReplayBuffer is a bounded, seedable feedback store with deterministic
// reservoir eviction. The replacement decision for the n-th item depends
// only on (Seed, n), never on wall clock or global RNG state, so the whole
// buffer history is a pure function of the feedback sequence: persisting
// the item slice plus the admission counter fully captures it, and a
// restored buffer evicts exactly as the uninterrupted one would have.
type ReplayBuffer struct {
	mu    sync.Mutex
	cap   int
	seed  int64
	seen  int64 // items ever offered via Add
	items []*volume.Sample
}

// NewReplayBuffer builds an empty buffer holding at most capacity samples.
func NewReplayBuffer(capacity int, seed int64) (*ReplayBuffer, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("online: buffer capacity must be ≥ 1, got %d", capacity)
	}
	return &ReplayBuffer{cap: capacity, seed: seed}, nil
}

// mix is a splitmix64-style finalizer: the stateless per-item random source
// for reservoir sampling.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// Add offers a sample. While under capacity it is appended; afterwards
// classic reservoir sampling (Algorithm R) keeps every offered item
// resident with probability cap/seen, using the deterministic per-item
// draw described above. Reports whether the sample was retained.
func (b *ReplayBuffer) Add(s *volume.Sample) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seen++
	if len(b.items) < b.cap {
		b.items = append(b.items, s)
		return true
	}
	j := mix(uint64(b.seed) ^ mix(uint64(b.seen)))
	slot := int64(j % uint64(b.seen))
	if slot >= int64(b.cap) {
		return false
	}
	b.items[slot] = s
	return true
}

// Len returns the number of resident samples.
func (b *ReplayBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Seen returns the number of samples ever offered.
func (b *ReplayBuffer) Seen() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seen
}

// Snapshot returns a copy of the resident slice (the samples themselves
// are shared and must be treated as read-only, which training loops do).
func (b *ReplayBuffer) Snapshot() []*volume.Sample {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*volume.Sample, len(b.items))
	copy(out, b.items)
	return out
}

// Buffer state keys inside the sample stream. The extra map given to Save
// rides alongside under its own keys; "buffer:" is reserved.
const (
	keySeen = "buffer:seen"
	keyCap  = "buffer:cap"
	keySeed = "buffer:seed"
)

// Save writes the buffer — and any extra caller state — to w as a ckpt
// sample stream. Extra keys must not use the "buffer:" prefix.
func (b *ReplayBuffer) Save(w io.Writer, extra map[string][]float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := map[string][]float64{
		keySeen: {float64(b.seen)},
		keyCap:  {float64(b.cap)},
		keySeed: {float64(b.seed)},
	}
	for k, v := range extra {
		if strings.HasPrefix(k, "buffer:") {
			return fmt.Errorf("online: extra state key %q uses the reserved buffer: prefix", k)
		}
		state[k] = v
	}
	return ckpt.SaveSamples(w, b.items, state)
}

// Load reads a stream written by Save into b (which must have the same
// capacity and seed — eviction determinism depends on both) and returns
// the extra caller state. A stream holding more samples than b's capacity
// is rejected before any sample is read.
func (b *ReplayBuffer) Load(r io.Reader) (map[string][]float64, error) {
	samples, state, err := ckpt.LoadSamples(r, b.cap)
	if err != nil {
		return nil, err
	}
	if got := scalar(state, keyCap); int(got) != b.cap {
		return nil, fmt.Errorf("online: buffer capacity %d does not match checkpoint %g", b.cap, got)
	}
	if got := scalar(state, keySeed); int64(got) != b.seed {
		return nil, fmt.Errorf("online: buffer seed %d does not match checkpoint %g", b.seed, got)
	}
	seen := int64(scalar(state, keySeen))
	if seen < int64(len(samples)) {
		return nil, fmt.Errorf("online: checkpoint holds %d samples but has seen %d", len(samples), seen)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items = samples
	b.seen = seen
	extra := map[string][]float64{}
	for k, v := range state {
		if !strings.HasPrefix(k, "buffer:") {
			extra[k] = v
		}
	}
	return extra, nil
}

// scalar fetches the first value of a state key (0 when absent or empty).
func scalar(state map[string][]float64, key string) float64 {
	if v := state[key]; len(v) > 0 {
		return v[0]
	}
	return 0
}
