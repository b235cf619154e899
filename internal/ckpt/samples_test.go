package ckpt

import (
	"bytes"
	"math"
	"strings"
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
	var buf bytes.Buffer
	if err := SaveSamples(&buf, samples, state); err != nil {
		t.Fatal(err)
	}

	got, gotState, err := LoadSamples(&buf, len(samples))
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
	var buf bytes.Buffer
	if err := SaveSamples(&buf, nil, map[string][]float64{"buffer.seen": {0}}); err != nil {
		t.Fatal(err)
	}
	samples, state, err := LoadSamples(&buf, 0)
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
	var buf bytes.Buffer
	s := bufferSamples(t, 1)[0]
	if err := SaveSamples(&buf, []*volume.Sample{s}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSamples(&buf, 1); err != nil {
		t.Fatalf("round trip with empty state failed: %v", err)
	}

	var model bytes.Buffer
	if err := Save(&model, tinyNet(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSamples(&model, 1); err == nil {
		t.Fatal("model checkpoint accepted as a sample stream")
	}
}

// TestSampleStreamStopsAtItsCount: the reader takes exactly the samples the
// leading payload counts, so a checkpoint written after the stream loads
// from the same reader, and a count above the limit fails before any sample
// is read.
func TestSampleStreamStopsAtItsCount(t *testing.T) {
	samples := bufferSamples(t, 2)
	var buf bytes.Buffer
	if err := SaveSamples(&buf, samples, nil); err != nil {
		t.Fatal(err)
	}
	streamLen := buf.Len()
	if err := Save(&buf, tinyNet(1), map[string][]float64{"opt.step": {7}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	r := bytes.NewReader(raw)
	got, _, err := LoadSamples(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Name != samples[1].Name {
		t.Fatalf("loaded %d samples", len(got))
	}
	state, err := Load(r, tinyNet(2))
	if err != nil {
		t.Fatalf("checkpoint after the stream: %v", err)
	}
	if v := state["opt.step"]; len(v) != 1 || v[0] != 7 {
		t.Fatalf("state %v", state)
	}

	// Only the leading payload is whole: a limit of 1 must stop there.
	if _, _, err := LoadSamples(bytes.NewReader(raw[:streamLen-1]), 1); err == nil || !strings.Contains(err.Error(), "at most 1") {
		t.Fatalf("count above the limit: err %v", err)
	}
}
