package ckpt

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/record"
	"repro/internal/volume"
)

// Sample-stream checkpoints persist a sample collection — the online replay
// buffer — with bit-exact float64 state: a leading state payload (the
// sample count under the marker key, the state as uint64 bit patterns under
// "state:" keys), then one record.MarshalSample payload per sample, in
// order. The reader stops after the counted samples, so other records may
// follow in the same file.

// sampleStreamMarker tags the leading payload, and holds the sample count,
// so model checkpoints (whose features carry param: and shape: keys
// instead) are rejected on load.
const sampleStreamMarker = "sample-stream"

// SaveSamples writes the state map and samples to w.
func SaveSamples(w io.Writer, samples []*volume.Sample, state map[string][]float64) error {
	f := record.NewFeatures()
	f.AddInts(sampleStreamMarker, []int64{int64(len(samples))})
	addBits(f, "state:", state)
	if err := record.NewWriter(w).Write(f.Marshal()); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return record.WriteSamples(w, samples)
}

// LoadSamples reads back a stream written by SaveSamples: the samples in
// their stored order and the state map, every float64 bit-exact. It reads
// exactly the samples the leading payload counts, and rejects a count above
// limit before it reads any of them.
func LoadSamples(r io.Reader, limit int) ([]*volume.Sample, map[string][]float64, error) {
	rr := record.NewReader(r)
	payload, err := rr.Next()
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: sample stream has no state payload: %w", err)
	}
	f, err := record.Unmarshal(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	count := f.Ints[sampleStreamMarker]
	if len(count) != 1 {
		return nil, nil, fmt.Errorf("ckpt: not a sample-stream checkpoint (marker missing)")
	}
	for key := range f.Ints {
		if key != sampleStreamMarker && !strings.HasPrefix(key, "state:") {
			return nil, nil, fmt.Errorf("ckpt: not a sample-stream checkpoint (leading payload has %q)", key)
		}
	}
	if n := count[0]; n < 0 || n > int64(limit) {
		return nil, nil, fmt.Errorf("ckpt: sample stream holds %d samples, at most %d allowed", n, limit)
	}
	samples := make([]*volume.Sample, count[0])
	for i := range samples {
		payload, err := rr.Next()
		if err != nil {
			return nil, nil, fmt.Errorf("ckpt: sample %d of %d: %w", i, len(samples), err)
		}
		if samples[i], err = record.UnmarshalSample(payload); err != nil {
			return nil, nil, fmt.Errorf("ckpt: sample %d of %d: %w", i, len(samples), err)
		}
	}
	return samples, readBits(f, "state:"), nil
}
