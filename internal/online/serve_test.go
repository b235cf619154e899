package online

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/patch"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

// TestControllerDrivesRealServer wires the controller to an actual serving
// stack: generation zero installs the shadow weights, a stubbed gate
// promotes generation one, and the server's segmentation output must
// change accordingly while requests keep succeeding.
func TestControllerDrivesRealServer(t *testing.T) {
	netCfg := tinyNet()
	factory := func() (serve.Model, error) {
		m, err := unet.New(netCfg)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	srv, err := serve.New(serve.Config{
		Window:   patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}, Blend: patch.BlendGaussian},
		MaxQueue: 256,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	buf, err := NewReplayBuffer(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{
		Net: netCfg, Loss: "dice", Optimizer: "sgd", LR: 0.1,
		Base:     phantoms(t, 2, 9),
		Holdout:  phantoms(t, 1, 77),
		Buffer:   buf,
		Promoter: srv,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}

	render := func(x *tensor.Tensor) []byte {
		out, err := srv.Segment(x)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 4*len(out.Data()))
		for i, v := range out.Data() {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	vol := phantoms(t, 1, 41)[0].Input
	before := render(vol)

	c.evalFn = func(m *unet.UNet, _ []*volume.Sample) (float64, error) {
		if m == c.shadow {
			return 1, nil
		}
		return 0, nil
	}
	if err := c.Feedback(phantoms(t, 1, 42)[0]); err != nil {
		t.Fatal(err)
	}
	if trained, err := c.Tick(); err != nil || !trained {
		t.Fatalf("tick trained=%v err=%v", trained, err)
	}
	if c.Stats().Promotions != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
	after := render(vol)
	if bytes.Equal(before, after) {
		t.Fatal("promotion did not change the served segmentation")
	}
	if srv.Stats().Reloads < 2 {
		t.Fatalf("server recorded %d reloads, want ≥ 2 (install + promote)", srv.Stats().Reloads)
	}
}
