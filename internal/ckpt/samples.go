package ckpt

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/record"
	"repro/internal/volume"
)

// Sample-stream checkpoints persist a mutable sample collection — the
// online continual-learning replay buffer — together with bit-exact float64
// controller state, so a restarted process resumes with the identical
// buffer contents and eviction cursor. The on-disk form is one TFRecord
// stream: a leading state payload (the session-state codec's uint64 bit
// patterns under "state:" keys) followed by one record.MarshalSample
// payload per sample, in buffer order.

// sampleStreamMarker tags the leading payload so model checkpoints (whose
// features carry param: and shape: keys instead) are rejected on load.
const sampleStreamMarker = "sample-stream"

// SaveSamples writes the state map and samples to w.
func SaveSamples(w io.Writer, samples []*volume.Sample, state map[string][]float64) error {
	f := record.NewFeatures()
	f.AddInts(sampleStreamMarker, []int64{int64(len(samples))})
	addBits(f, "state:", state)
	rw := record.NewWriter(w)
	if err := rw.Write(f.Marshal()); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return record.WriteSamples(w, samples)
}

// LoadSamples reads back a stream written by SaveSamples: the samples in
// their stored order and the state map, every float64 bit-exact.
func LoadSamples(r io.Reader) ([]*volume.Sample, map[string][]float64, error) {
	rr := record.NewReader(r)
	payload, err := rr.Next()
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: sample stream has no state payload: %w", err)
	}
	f, err := record.Unmarshal(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	if _, ok := f.Ints[sampleStreamMarker]; !ok {
		return nil, nil, fmt.Errorf("ckpt: not a sample-stream checkpoint (marker missing)")
	}
	for key := range f.Ints {
		if key != sampleStreamMarker && !strings.HasPrefix(key, "state:") {
			return nil, nil, fmt.Errorf("ckpt: not a sample-stream checkpoint (leading payload has %q)", key)
		}
	}
	samples, err := record.ReadSamples(r)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	return samples, readBits(f, "state:"), nil
}

// SaveSamplesFile writes a sample-stream checkpoint to path atomically.
func SaveSamplesFile(path string, samples []*volume.Sample, state map[string][]float64) error {
	return WriteFileAtomic(path, func(f io.Writer) error { return SaveSamples(f, samples, state) })
}

// LoadSamplesFile restores a sample-stream checkpoint from path.
func LoadSamplesFile(path string) ([]*volume.Sample, map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return LoadSamples(f)
}
