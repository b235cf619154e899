package ckpt

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/msd"
	"repro/internal/volume"
)

func bufferSamples(t *testing.T, n int) []*volume.Sample {
	t.Helper()
	cfg := msd.Config{Cases: n, D: 8, H: 8, W: 8, Seed: 31}
	out := make([]*volume.Sample, n)
	for i := range out {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func TestSampleStreamRoundTrip(t *testing.T) {
	samples := bufferSamples(t, 3)
	state := map[string][]float64{
		"buffer.seen": {12345678901}, // past float32's 2^24: must stay bit-exact
		"buffer.caps": {64, math.Pi, math.Inf(1)},
	}
	path := filepath.Join(t.TempDir(), "buffer.ckpt")
	if err := SaveSamplesFile(path, samples, state); err != nil {
		t.Fatal(err)
	}

	got, gotState, err := LoadSamplesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("loaded %d samples, want %d", len(got), len(samples))
	}
	for i, s := range samples {
		g := got[i]
		if g.Name != s.Name {
			t.Fatalf("sample %d name %q, want %q (order must be preserved)", i, g.Name, s.Name)
		}
		if !g.Input.SameShape(s.Input) || !g.Mask.SameShape(s.Mask) {
			t.Fatalf("sample %d shape changed", i)
		}
		for j, v := range s.Input.Data() {
			if g.Input.Data()[j] != v {
				t.Fatalf("sample %d input voxel %d: %v != %v", i, j, g.Input.Data()[j], v)
			}
		}
		for j, v := range s.Mask.Data() {
			if g.Mask.Data()[j] != v {
				t.Fatalf("sample %d mask voxel %d: %v != %v", i, j, g.Mask.Data()[j], v)
			}
		}
	}
	if len(gotState) != len(state) {
		t.Fatalf("state keys %d, want %d", len(gotState), len(state))
	}
	for k, vals := range state {
		g := gotState[k]
		if len(g) != len(vals) {
			t.Fatalf("state %q length %d, want %d", k, len(g), len(vals))
		}
		for i, v := range vals {
			if math.Float64bits(g[i]) != math.Float64bits(v) {
				t.Fatalf("state %q[%d] not bit-exact: %v != %v", k, i, g[i], v)
			}
		}
	}
}

func TestSampleStreamEmptyBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ckpt")
	if err := SaveSamplesFile(path, nil, map[string][]float64{"buffer.seen": {0}}); err != nil {
		t.Fatal(err)
	}
	samples, state, err := LoadSamplesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 0 {
		t.Fatalf("empty buffer loaded %d samples", len(samples))
	}
	if v := state["buffer.seen"]; len(v) != 1 || v[0] != 0 {
		t.Fatalf("state %v", state)
	}
}

func TestSampleStreamRejectsForeignCheckpoint(t *testing.T) {
	// A model checkpoint is a record stream too, but its leading payload is
	// not a sample-stream state payload — loading must fail cleanly, not
	// misinterpret parameters as buffer contents.
	path := filepath.Join(t.TempDir(), "model.ckpt")
	s := bufferSamples(t, 1)[0]
	if err := SaveSamplesFile(path, []*volume.Sample{s}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSamplesFile(path); err != nil {
		t.Fatalf("round trip with empty state failed: %v", err)
	}

	modelPath := filepath.Join(t.TempDir(), "real-model.ckpt")
	if err := SaveFile(modelPath, tinyNet(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSamplesFile(modelPath); err == nil {
		t.Fatal("model checkpoint accepted as a sample stream")
	}
}
