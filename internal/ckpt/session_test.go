package ckpt

import (
	"bytes"
	"math"
	"testing"
)

// TestSessionRoundTripBitExact: session state (float64 slices) and model
// parameters survive a save/load cycle bit-for-bit, including values that
// do not survive a float32 round trip.
func TestSessionRoundTripBitExact(t *testing.T) {
	src := tinyNet(1)
	state := map[string][]float64{
		"adam.t":         {17},
		"adam.lr":        {1e-4},
		"adam.m:enc1.aw": {math.Pi, math.Copysign(0, -1), 1e-300, math.Nextafter(1, 2)},
		"session.hist":   {0.1, 0.2, 0.30000000000000004},
		"session.step":   {1<<53 - 1},
	}

	var buf bytes.Buffer
	if err := Save(&buf, src, state); err != nil {
		t.Fatal(err)
	}

	dst := tinyNet(2)
	got, err := Load(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(src, dst, state, got); err != nil {
		t.Fatal(err)
	}
}

// TestLoadModelSkipsSessionState: a session checkpoint doubles as a model
// checkpoint — a model loader restores the model and ignores the state.
func TestLoadModelSkipsSessionState(t *testing.T) {
	src := tinyNet(1)
	var buf bytes.Buffer
	state := map[string][]float64{"adam.t": {3}, "adam.lr": {0.01}}
	if err := Save(&buf, src, state); err != nil {
		t.Fatal(err)
	}
	dst := tinyNet(2)
	if _, err := Load(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if err := sameBits(src, dst, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSessionOnModelCheckpoint: a bare model checkpoint loads with an
// empty session state (the caller decides whether that is an error).
func TestLoadSessionOnModelCheckpoint(t *testing.T) {
	src := tinyNet(1)
	var buf bytes.Buffer
	if err := Save(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	dst := tinyNet(2)
	state, err := Load(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("state %v, want empty", state)
	}
}
