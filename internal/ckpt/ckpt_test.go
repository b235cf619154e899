package ckpt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/unet"
)

func tinyNet(seed int64) *unet.UNet {
	return unet.MustNew(unet.Config{
		InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: seed,
	})
}

// paramList is a Model without auxiliary state.
type paramList []*nn.Param

func (l paramList) Params() []*nn.Param { return l }

// sameBits reports the first place where two models, or the session
// states loaded with them, differ in a single bit.
func sameBits(a, b Model, sa, sb map[string][]float64) error {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return fmt.Errorf("%d parameters, want %d", len(pb), len(pa))
	}
	for i, p := range pa {
		for j, v := range p.Value.Data() {
			if math.Float32bits(v) != math.Float32bits(pb[i].Value.Data()[j]) {
				return fmt.Errorf("parameter %s[%d]: %v, want %v", p.Name, j, pb[i].Value.Data()[j], v)
			}
		}
	}
	for _, pair := range [][2]map[string][]float64{{auxOf(a), auxOf(b)}, {sa, sb}} {
		want, got := pair[0], pair[1]
		if len(got) != len(want) {
			return fmt.Errorf("%d state entries, want %d", len(got), len(want))
		}
		for k, vals := range want {
			if len(got[k]) != len(vals) {
				return fmt.Errorf("state %q: %d values, want %d", k, len(got[k]), len(vals))
			}
			for i, v := range vals {
				if math.Float64bits(got[k][i]) != math.Float64bits(v) {
					return fmt.Errorf("state %q[%d]: bits %#x, want %#x", k, i, math.Float64bits(got[k][i]), math.Float64bits(v))
				}
			}
		}
	}
	return nil
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := tinyNet(1)
	rng := rand.New(rand.NewSource(2))
	for _, p := range src.Params() {
		for i := range p.Value.Data() {
			p.Value.Data()[i] = float32(rng.NormFloat64())
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, src, nil); err != nil {
		t.Fatal(err)
	}

	dst := tinyNet(99) // different init
	state, err := Load(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(src, dst, nil, state); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	src := tinyNet(1)
	var buf bytes.Buffer
	if err := Save(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	other := unet.MustNew(unet.Config{
		InChannels: 2, OutChannels: 1, BaseFilters: 4, Steps: 2, // wider net
		Kernel: 3, UpKernel: 2, Seed: 1,
	})
	_, err := Load(&buf, other)
	if err == nil {
		t.Fatal("shape mismatch must error")
	}
	// The error must name the offending parameter and both shapes, so a
	// mis-configured serving deployment is diagnosable from the message.
	msg := err.Error()
	if !strings.Contains(msg, `"enc1.a.w"`) {
		t.Fatalf("shape-mismatch error does not name the parameter: %q", msg)
	}
	if !strings.Contains(msg, "[4 2 3 3 3]") || !strings.Contains(msg, "[2 2 3 3 3]") {
		t.Fatalf("shape-mismatch error does not give both shapes: %q", msg)
	}
}

// TestLoadRejectsArchitectureMismatch: a deeper U-Net of the same width
// shares most of its parameter names and shapes with a shallower one, so
// matching parameters by name alone would load part of it and drop the
// rest. Load compares the stored name list in order and must refuse,
// naming the first parameter where the two architectures part, and leave
// the model untouched.
func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	deep := unet.MustNew(unet.Config{
		InChannels: 2, OutChannels: 1, BaseFilters: 2, Steps: 3,
		Kernel: 3, UpKernel: 2, Seed: 1,
	})
	var buf bytes.Buffer
	if err := Save(&buf, deep, nil); err != nil {
		t.Fatal(err)
	}
	shallow, before := tinyNet(2), tinyNet(2)
	_, err := Load(&buf, shallow)
	if err == nil {
		t.Fatal("a Steps: 3 checkpoint loaded into a Steps: 2 network")
	}
	i := 0
	for shallow.Params()[i].Name == deep.Params()[i].Name {
		i++
	}
	first := fmt.Sprintf("%q where the model has %q", deep.Params()[i].Name, shallow.Params()[i].Name)
	if !strings.Contains(err.Error(), first) {
		t.Fatalf("error %q does not name the first differing parameter (%s)", err, first)
	}
	if err := sameBits(before, shallow, nil, nil); err != nil {
		t.Fatalf("a rejected load changed the model: %v", err)
	}
}

// TestModelRoundTripBitwiseForward is the full serving contract: a trained
// U-Net saved with SaveFile and loaded into a fresh differently-seeded net
// must produce bit-for-bit identical Infer outputs — parameters
// AND batch-norm running statistics round-trip exactly.
func TestModelRoundTripBitwiseForward(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")

	src := tinyNet(5)
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	// Training forwards move the running statistics away from their init.
	src.Forward(x)
	src.Forward(x)
	if err := SaveFile(path, src, nil); err != nil {
		t.Fatal(err)
	}

	dst := tinyNet(9) // different weights AND different running stats
	if _, err := LoadFile(path, dst); err != nil {
		t.Fatal(err)
	}

	want := src.Infer(x)
	got := dst.Infer(x)
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("Infer element %d differs after round trip: %v vs %v", i, gd[i], wd[i])
		}
	}
}

// TestLoadRejectsMissingAuxState: a checkpoint written from a model without
// auxiliary state must not load into one that has it — the running
// statistics would be left as they were, and Infer would silently differ
// from the saved model's.
func TestLoadRejectsMissingAuxState(t *testing.T) {
	src := tinyNet(1)
	var buf bytes.Buffer
	if err := Save(&buf, paramList(src.Params()), nil); err != nil {
		t.Fatal(err)
	}
	dst, before := tinyNet(2), tinyNet(2)
	_, err := Load(&buf, dst)
	if err == nil || !strings.Contains(err.Error(), "auxiliary state") {
		t.Fatalf("checkpoint without auxiliary state loaded into a U-Net: %v", err)
	}
	if err := sameBits(before, dst, nil, nil); err != nil {
		t.Fatalf("a rejected load changed the model: %v", err)
	}
}

func TestLoadRejectsMissingParam(t *testing.T) {
	p := nn.NewParam("only", tensor.Ones(2))
	var buf bytes.Buffer
	if err := Save(&buf, paramList{p}, nil); err != nil {
		t.Fatal(err)
	}
	q := nn.NewParam("other", tensor.Ones(2))
	if _, err := Load(&buf, paramList{q}); err == nil {
		t.Fatal("missing parameter must error")
	}
}

func TestSaveRejectsUnnamedParam(t *testing.T) {
	p := nn.NewParam("", tensor.Ones(2))
	var buf bytes.Buffer
	if err := Save(&buf, paramList{p}, nil); err == nil {
		t.Fatal("unnamed parameter must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint")), paramList{}); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := tinyNet(3)
	state := map[string][]float64{"epoch": {7}}
	if err := SaveFile(path, src, state); err != nil {
		t.Fatal(err)
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file not cleaned up")
	}
	dst := tinyNet(4)
	got, err := LoadFile(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(src, dst, state, got); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt"), paramList{}); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestResumeTrainingEquivalence verifies the checkpoint contract end to
// end: training 2 steps, checkpointing, then loading into a fresh model
// must reproduce bit-identical forward outputs.
func TestResumeTrainingEquivalence(t *testing.T) {
	src := tinyNet(5)
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 0, 1, 1, 2, 4, 4, 4)
	// A couple of pseudo-updates.
	for step := 0; step < 2; step++ {
		for _, p := range src.Params() {
			p.Value.AddScaled(0.01, tensor.Ones(p.Value.Shape()...))
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	dst := tinyNet(7)
	if _, err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	a := src.Forward(x)
	b := dst.Forward(x)
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("restored model diverges: %v", d)
	}
	if err := sameBits(src, dst, nil, nil); err != nil {
		t.Fatalf("running statistics diverge after a training forward: %v", err)
	}
}
