package serve

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/msd"
	"repro/internal/nn"
	"repro/internal/patch"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

func testNetConfig() unet.Config {
	return unet.Config{
		InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 5,
	}
}

// trainedCheckpoint trains a throwaway net for a step (moving weights and
// running statistics off their init) and writes it to a temp checkpoint.
func trainedCheckpoint(t *testing.T, seed int64) string {
	t.Helper()
	cfg := testNetConfig()
	cfg.Seed = seed
	u := unet.MustNew(cfg)
	rng := rand.New(rand.NewSource(seed + 100))
	x := tensor.Randn(rng, 0, 1, 1, 4, 4, 4, 4)
	g := tensor.Randn(rng, 0, 1, 1, 1, 4, 4, 4)
	u.Forward(x)
	u.Backward(g)
	for _, p := range u.Params() {
		p.Value.AddScaled(-0.01, p.Grad)
	}
	u.Forward(x) // second stats update with the new weights
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := ckpt.SaveFile(path, u, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func testSamples(t *testing.T, n, dim int) []*volume.Sample {
	t.Helper()
	out := make([]*volume.Sample, n)
	for i := range out {
		v := msd.GenerateCase(msd.Config{Cases: n, D: dim, H: dim, W: dim, Seed: 3}, i)
		s, err := volume.Preprocess(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func unetFactory() (Model, error) { return unet.New(testNetConfig()) }

// referenceModel loads the checkpoint into a standalone U-Net.
func referenceModel(t *testing.T, path string) *unet.UNet {
	t.Helper()
	u := unet.MustNew(testNetConfig())
	if _, err := ckpt.LoadFile(path, u); err != nil {
		t.Fatal(err)
	}
	return u
}

// TestBatchedMatchesReference is the acceptance bar: concurrent requests,
// coalesced across requests into micro-batches over multiple replicas, must
// produce bit-for-bit the standalone patch.SlidingWindow.Infer result for
// the same checkpoint — for overlapping windows (stride < patch), in both
// blend modes.
func TestBatchedMatchesReference(t *testing.T) {
	checkBatchedMatchesReference(t, trainedCheckpoint(t, 1), 2)
}

// TestDirectScatterMatchesReference holds the same bar for disjoint windows
// (stride = patch), where every voxel is covered by exactly one window —
// in both blend modes, including the Gaussian weighting whose
// multiply-then-divide must round identically.
func TestDirectScatterMatchesReference(t *testing.T) {
	checkBatchedMatchesReference(t, trainedCheckpoint(t, 2), 4)
}

// checkBatchedMatchesReference serves four concurrent requests for the
// checkpoint at path with 4³ windows at the given stride, for each blend
// mode, and compares every response with the standalone inference.
func checkBatchedMatchesReference(t *testing.T, path string, stride int) {
	t.Helper()
	samples := testSamples(t, 4, 8)

	for _, blend := range []patch.BlendMode{patch.BlendUniform, patch.BlendGaussian} {
		sw := patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{stride, stride, stride}, Blend: blend}
		s, err := New(Config{
			Window:    sw,
			Replicas:  2,
			MaxBatch:  3,
			MaxLinger: 500 * time.Microsecond,
			MaxQueue:  256,
		}, unetFactory)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(path); err != nil {
			t.Fatal(err)
		}

		ref := referenceModel(t, path)
		var wg sync.WaitGroup
		outs := make([]*tensor.Tensor, len(samples))
		errs := make([]error, len(samples))
		for i, smp := range samples {
			wg.Add(1)
			go func(i int, smp *volume.Sample) {
				defer wg.Done()
				outs[i], errs[i] = s.Segment(smp.Input)
			}(i, smp)
		}
		wg.Wait()
		s.Close()

		for i, smp := range samples {
			if errs[i] != nil {
				t.Fatalf("stride=%d blend=%d request %d: %v", stride, blend, i, errs[i])
			}
			want, err := sw.Infer(ref, smp)
			if err != nil {
				t.Fatal(err)
			}
			wd, gd := want.Data(), outs[i].Data()
			if len(wd) != len(gd) {
				t.Fatalf("request %d: size %d vs %d", i, len(gd), len(wd))
			}
			for j := range wd {
				if wd[j] != gd[j] {
					t.Fatalf("stride=%d blend=%d request %d element %d: batched %v != reference %v",
						stride, blend, i, j, gd[j], wd[j])
				}
			}
		}

		st := s.Stats()
		if st.Requests != uint64(len(samples)) {
			t.Fatalf("requests %d, want %d", st.Requests, len(samples))
		}
		wantPatches := uint64(len(samples) * len(sw.Windows(8, 8, 8)))
		if st.Patches != wantPatches {
			t.Fatalf("patches %d, want %d", st.Patches, wantPatches)
		}
		if st.Batches == 0 || st.AvgBatchFill < 1 {
			t.Fatalf("implausible batch stats: %+v", st)
		}
		if st.QueueDepth != 0 {
			t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
		}
	}
}

// blockingModel lets the test hold compute mid-batch to make admission
// control deterministic.
type blockingModel struct {
	release chan struct{}
	outC    int
}

func (m *blockingModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	<-m.release
	sh := x.Shape()
	out := tensor.New(sh[0], m.outC, sh[2], sh[3], sh[4])
	for i := range out.Data() {
		out.Data()[i] = 0.5
	}
	return out
}
func (m *blockingModel) Params() []*nn.Param { return nil }
func (m *blockingModel) SetWorkers(int)      {}

// TestAdmissionControl: past MaxQueue outstanding patches, Segment rejects
// immediately with an OverloadedError carrying a retry-after estimate.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Config{
		Window:    patch.SlidingWindow{Patch: [3]int{8, 8, 8}, Stride: [3]int{8, 8, 8}},
		Replicas:  1,
		MaxBatch:  1,
		MaxLinger: time.Microsecond,
		MaxQueue:  1,
	}, func() (Model, error) { return &blockingModel{release: release, outC: 1}, nil })
	if err != nil {
		t.Fatal(err)
	}

	x := tensor.New(4, 8, 8, 8) // one window per request
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Segment(x)
		firstDone <- err
	}()

	// Wait until the first request owns the queue slot.
	for s.pending.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	_, err = s.Segment(x)
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("second request: got %v, want OverloadedError", err)
	}
	if over.QueueDepth != 1 {
		t.Fatalf("queue depth %d, want 1", over.QueueDepth)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("retry-after %v, want > 0", over.RetryAfter)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected %d, want 1", s.Stats().Rejected)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	s.Close()
}

// TestReloadHotSwap: requests served after Reload use the new weights, and
// a failed reload leaves the serving weights untouched.
func TestReloadHotSwap(t *testing.T) {
	pathA := trainedCheckpoint(t, 1)
	pathB := trainedCheckpoint(t, 2)
	smp := testSamples(t, 1, 8)[0]
	sw := patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{4, 4, 4}}

	s, err := New(Config{Window: sw, Replicas: 2}, unetFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	segment := func() *tensor.Tensor {
		out, err := s.Segment(smp.Input)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	bitwiseEq := func(a, b *tensor.Tensor) bool {
		ad, bd := a.Data(), b.Data()
		for i := range ad {
			if ad[i] != bd[i] {
				return false
			}
		}
		return true
	}

	if err := s.Reload(pathA); err != nil {
		t.Fatal(err)
	}
	gotA := segment()
	wantA, err := sw.Infer(referenceModel(t, pathA), smp)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEq(gotA, wantA) {
		t.Fatal("post-reload output does not match checkpoint A reference")
	}

	if err := s.Reload(pathB); err != nil {
		t.Fatal(err)
	}
	gotB := segment()
	wantB, err := sw.Infer(referenceModel(t, pathB), smp)
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEq(gotB, wantB) {
		t.Fatal("post-reload output does not match checkpoint B reference")
	}
	if bitwiseEq(gotA, gotB) {
		t.Fatal("reload was a no-op: outputs identical across checkpoints")
	}

	// A bad path must fail without touching the serving weights.
	if err := s.Reload(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("reload of a missing checkpoint must error")
	}
	if !bitwiseEq(segment(), wantB) {
		t.Fatal("failed reload corrupted the serving weights")
	}
	if got := s.Stats().Reloads; got != 2 {
		t.Fatalf("reloads %d, want 2", got)
	}
}

// TestCloseDrains: Close lets in-flight requests finish and subsequent
// requests fail fast with ErrClosed.
func TestCloseDrains(t *testing.T) {
	path := trainedCheckpoint(t, 1)
	smp := testSamples(t, 1, 8)[0]
	s, err := New(Config{
		Window:   patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}},
		Replicas: 2,
		MaxQueue: 256,
	}, unetFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(path); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Segment(smp.Input)
		}(i)
	}
	wg.Wait()
	s.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight request %d failed: %v", i, err)
		}
	}
	if _, err := s.Segment(smp.Input); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Segment: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// channelAwareModel records nothing and scales with whatever channel count
// arrives, so mixed-channel traffic exercises the batcher's compatibility
// check rather than the model's own validation.
type channelAwareModel struct{}

func (channelAwareModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	sh := x.Shape()
	out := tensor.New(sh[0], 1, sh[2], sh[3], sh[4])
	od := out.Data()
	xd := x.Data()
	pvol := sh[2] * sh[3] * sh[4]
	for b := 0; b < sh[0]; b++ {
		for i := 0; i < pvol; i++ {
			var acc float32
			for c := 0; c < sh[1]; c++ {
				acc += xd[(b*sh[1]+c)*pvol+i]
			}
			od[b*pvol+i] = acc / float32(sh[1])
		}
	}
	return out
}
func (channelAwareModel) Params() []*nn.Param { return nil }
func (channelAwareModel) SetWorkers(int)      {}

// TestMixedChannelRequests: two individually-valid requests with different
// channel counts must never share a micro-batch — a shared batch tensor
// sized off the first task would either index past the smaller volume
// (crash) or silently truncate the wider one's channels. Both arrival
// orders are forced into the same batch-formation window via a long linger.
func TestMixedChannelRequests(t *testing.T) {
	s, err := New(Config{
		Window:    patch.SlidingWindow{Patch: [3]int{8, 8, 8}, Stride: [3]int{8, 8, 8}},
		Replicas:  1,
		MaxBatch:  4,
		MaxLinger: 100 * time.Millisecond, // hold the formation window open
		MaxQueue:  16,
	}, func() (Model, error) { return channelAwareModel{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Per-channel constants whose subset means differ from the full mean,
	// so channel truncation is detectable, not just crashes.
	fill := func(c int) *tensor.Tensor {
		x := tensor.New(c, 8, 8, 8)
		for ci := 0; ci < c; ci++ {
			seg := x.Data()[ci*512 : (ci+1)*512]
			for i := range seg {
				seg[i] = float32(ci + 1)
			}
		}
		return x
	}
	wide := fill(4)   // mean (1+2+3+4)/4 = 2.5; first-2-channel mean 1.5
	narrow := fill(2) // mean (1+2)/2 = 1.5

	segment := func(x *tensor.Tensor, out **tensor.Tensor, errp *error, wg *sync.WaitGroup) {
		defer wg.Done()
		*out, *errp = s.Segment(x)
	}
	for round := 0; round < 4; round++ {
		first, second := wide, narrow
		wantFirst, wantSecond := float32(2.5), float32(1.5)
		if round%2 == 1 {
			first, second = narrow, wide
			wantFirst, wantSecond = 1.5, 2.5
		}
		var wg sync.WaitGroup
		var out1, out2 *tensor.Tensor
		var err1, err2 error
		wg.Add(2)
		go segment(first, &out1, &err1, &wg)
		// The first request is lingering in the batcher well within 100ms;
		// the second lands in its formation window.
		time.Sleep(5 * time.Millisecond)
		go segment(second, &out2, &err2, &wg)
		wg.Wait()
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: %v / %v", round, err1, err2)
		}
		if got := out1.Data()[0]; got != wantFirst {
			t.Fatalf("round %d: first request got %v, want %v (channel truncation)", round, got, wantFirst)
		}
		if got := out2.Data()[0]; got != wantSecond {
			t.Fatalf("round %d: second request got %v, want %v (channel truncation)", round, got, wantSecond)
		}
	}
}

// TestSegmentValidation: malformed requests are rejected at admission.
func TestSegmentValidation(t *testing.T) {
	s, err := New(Config{
		Window:        patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{4, 4, 4}},
		InChannels:    4,
		ExtentDivisor: 2,
		MaxQueue:      4,
	}, unetFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Segment(tensor.New(3, 8, 8, 8)); err == nil {
		t.Fatal("wrong channel count must be rejected")
	}
	if _, err := s.Segment(tensor.New(4, 8, 8)); err == nil {
		t.Fatal("wrong rank must be rejected")
	}
	// 16^3 at stride 4 needs 64 windows > MaxQueue 4.
	if _, err := s.Segment(tensor.New(4, 16, 16, 16)); err == nil {
		t.Fatal("request larger than the queue must be rejected")
	}
}
