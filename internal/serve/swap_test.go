package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/patch"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// tensorBytes renders a tensor's data bit-exactly for comparison.
func tensorBytes(t *tensor.Tensor) []byte {
	out := make([]byte, 4*len(t.Data()))
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// distinctModel builds a model with seed-distinct weights.
func distinctModel(t *testing.T, seed int64) *unet.UNet {
	t.Helper()
	cfg := testNetConfig()
	cfg.Seed = seed
	u := unet.MustNew(cfg)
	return u
}

// TestSwapModelHammer drives inference traffic across repeated SwapModel
// calls under load: every response must be bitwise identical to the
// reference output of exactly one of the two models — a request whose
// micro-batches straddled a swap would blend predictions of both
// generations and match neither — and no request may be dropped. Run with
// -race in CI, this is the concurrent hot-swap acceptance test.
func TestSwapModelHammer(t *testing.T) {
	modelA := distinctModel(t, 101)
	modelB := distinctModel(t, 202)

	sw := patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}, Blend: patch.BlendGaussian}
	samples := testSamples(t, 2, 8)
	vol := samples[0].Input

	// References: a single-replica server carrying each model exclusively.
	refs := make([][]byte, 2)
	for i, m := range []*unet.UNet{modelA, modelB} {
		s, err := New(Config{Window: sw, Replicas: 1, MaxQueue: 256}, unetFactory)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SwapModel(m); err != nil {
			t.Fatal(err)
		}
		out, err := s.Segment(vol)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = tensorBytes(out)
		s.Close()
	}
	if bytes.Equal(refs[0], refs[1]) {
		t.Fatal("the two models produce identical outputs; the hammer can't distinguish generations")
	}

	s, err := New(Config{
		Window:    sw,
		Replicas:  2,
		MaxBatch:  3,
		MaxLinger: 200 * time.Microsecond,
		MaxQueue:  4096,
	}, unetFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SwapModel(modelA); err != nil {
		t.Fatal(err)
	}

	const (
		clients    = 6
		perClient  = 10
		swapRounds = 40
	)
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		done     atomic.Int64
		mismatch atomic.Int64
	)
	// Swapper: alternate generations as fast as the drain allows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swapRounds && !stop.Load(); i++ {
			m := modelA
			if i%2 == 0 {
				m = modelB
			}
			if err := s.SwapModel(m); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				out, err := s.Segment(vol)
				if err != nil {
					var over *OverloadedError
					if errors.As(err, &over) {
						// Admission control is the only tolerated failure;
						// retry so no request is dropped.
						time.Sleep(time.Millisecond)
						i--
						continue
					}
					t.Errorf("segment: %v", err)
					return
				}
				got := tensorBytes(out)
				if !bytes.Equal(got, refs[0]) && !bytes.Equal(got, refs[1]) {
					mismatch.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)

	if n := mismatch.Load(); n > 0 {
		t.Fatalf("%d responses matched neither model generation (torn swap)", n)
	}
	if n := done.Load(); n != clients*perClient {
		t.Fatalf("%d responses for %d requests (dropped)", n, clients*perClient)
	}
	if st := s.Stats(); st.Reloads < 2 {
		t.Fatalf("only %d swaps recorded; hammer did not exercise swapping", st.Reloads)
	}
}

// TestSwapModelValidates rejects mismatched models without touching the
// serving weights.
func TestSwapModelValidates(t *testing.T) {
	s, err := New(Config{
		Window: patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{4, 4, 4}},
	}, unetFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	before := tensorBytes(s.replicas[0].model.Params()[0].Value)

	cfg := testNetConfig()
	cfg.BaseFilters = 4 // different widths: every conv shape changes
	wrong := unet.MustNew(cfg)
	if err := s.SwapModel(wrong); err == nil {
		t.Fatal("shape-mismatched swap accepted")
	}
	if !bytes.Equal(before, tensorBytes(s.replicas[0].model.Params()[0].Value)) {
		t.Fatal("failed swap mutated serving weights")
	}
}
