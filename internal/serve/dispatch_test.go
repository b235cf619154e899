package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/patch"
	"repro/internal/tensor"
	"repro/internal/unet"
)

// gate holds the first Infer made on any replica sharing it until release
// is closed; every later Infer returns at once.
type gate struct {
	taken   atomic.Bool
	blocked chan struct{} // closed once the first Infer is held
	release chan struct{}
}

type gatedModel struct{ g *gate }

func (m gatedModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	if m.g.taken.CompareAndSwap(false, true) {
		close(m.g.blocked)
		<-m.g.release
	}
	sh := x.Shape()
	return tensor.New(sh[0], 1, sh[2], sh[3], sh[4])
}
func (gatedModel) Params() []*nn.Param { return nil }
func (gatedModel) SetWorkers(int)      {}

// TestIdleReplicaTakesNextBatch: while one replica is held inside its
// first micro-batch, every later batch must go to the idle replica. With
// one window per request and one window per batch, requests 2, 3 and 4,
// sent one after another, each complete while request 1 is still held;
// a batch handed to the held replica would wait until it is released. The
// deadline only bounds how long a failing run takes.
func TestIdleReplicaTakesNextBatch(t *testing.T) {
	g := &gate{blocked: make(chan struct{}), release: make(chan struct{})}
	s, err := New(Config{
		Window:   patch.SlidingWindow{Patch: [3]int{8, 8, 8}, Stride: [3]int{8, 8, 8}},
		Replicas: 2,
		MaxBatch: 1,
		MaxQueue: 8,
	}, func() (Model, error) { return gatedModel{g}, nil })
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(g.release) })
	defer s.Close()
	defer release()

	x := tensor.New(1, 8, 8, 8) // one window per request
	segment := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.Segment(x)
			done <- err
		}()
		return done
	}
	wait := func(done chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not complete: its batch waits behind the held replica", what)
		}
	}

	first := segment()
	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("request 1 never reached a replica")
	}
	for i := 2; i <= 4; i++ {
		wait(segment(), fmt.Sprintf("request %d", i))
	}
	select {
	case err := <-first:
		t.Fatalf("request 1 finished while its replica was held (err %v)", err)
	default:
	}
	release()
	wait(first, "request 1")
}

// recordingModel returns its input (one channel) and records, per
// micro-batch, the first voxel of every sample in it.
type recordingModel struct {
	mu      *sync.Mutex
	batches *[][]float32
}

func (m recordingModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	sh := x.Shape()
	pvol := sh[2] * sh[3] * sh[4]
	firsts := make([]float32, sh[0])
	for i := range firsts {
		firsts[i] = x.Data()[i*pvol]
	}
	m.mu.Lock()
	*m.batches = append(*m.batches, firsts)
	m.mu.Unlock()
	return x.Clone()
}
func (recordingModel) Params() []*nn.Param { return nil }
func (recordingModel) SetWorkers(int)      {}

// TestRequestWindowsStayContiguous: two concurrent 4-window requests under
// MaxBatch 4 must each fill a micro-batch of their own. Each request's
// volume holds one constant, distinct from the other's, so a batch's
// samples name the requests they came from; the long linger means only
// the queue order decides how the eight windows split into two batches.
func TestRequestWindowsStayContiguous(t *testing.T) {
	var mu sync.Mutex
	var batches [][]float32
	s, err := New(Config{
		Window:    patch.SlidingWindow{Patch: [3]int{8, 8, 8}, Stride: [3]int{8, 8, 8}},
		Replicas:  2,
		MaxBatch:  4,
		MaxLinger: time.Second,
		MaxQueue:  16,
	}, func() (Model, error) { return recordingModel{mu: &mu, batches: &batches}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rounds = 100
	for round := 0; round < rounds; round++ {
		vals := [2]float32{float32(2*round + 1), float32(2*round + 2)}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var outs [2]*tensor.Tensor
		var errs [2]error
		for i, v := range vals {
			x := tensor.New(1, 16, 16, 8) // 2×2×1 windows of 8³
			x.Fill(v)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				outs[i], errs[i] = s.Segment(x)
			}()
		}
		close(start)
		wg.Wait()
		for i, v := range vals {
			if errs[i] != nil {
				t.Fatalf("round %d request %d: %v", round, i, errs[i])
			}
			for j, got := range outs[i].Data() {
				if got != v {
					t.Fatalf("round %d request %d voxel %d: got %v, want %v", round, i, j, got, v)
				}
			}
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2*rounds {
		t.Fatalf("%d micro-batches, want 2 per round", len(batches))
	}
	for _, b := range batches {
		if len(b) != 4 {
			t.Fatalf("micro-batch of %d windows, want 4: %v", len(b), b)
		}
		for _, v := range b {
			if v != b[0] {
				t.Fatalf("micro-batch mixes requests: first voxels %v", b)
			}
		}
	}
}

// lastFirstModel is a U-Net that holds the Infer of one chosen window until
// every other window of the request has been predicted, so the window that
// comes first in scan order completes last.
type lastFirstModel struct {
	*unet.UNet
	first   []float32     // the held window's input
	others  *atomic.Int64 // other windows still to predict
	release chan struct{} // closed once others reaches zero
}

func (m lastFirstModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	if slices.Equal(x.Data(), m.first) {
		<-m.release
		return m.UNet.Infer(x)
	}
	out := m.UNet.Infer(x)
	if m.others.Add(-1) == 0 {
		close(m.release)
	}
	return out
}

// TestBlendIgnoresCompletionOrder: a request's windows may complete in any
// order across replicas, yet the response must equal the standalone
// sliding-window inference bit for bit. Overlapping Gaussian windows make
// the blend's sums order-sensitive; with one window per micro-batch, the
// first window in scan order is held on one replica while the other
// replica predicts all the rest, so a blend that added each window as it
// completed would sum in another order than the reference.
func TestBlendIgnoresCompletionOrder(t *testing.T) {
	sw := patch.SlidingWindow{Patch: [3]int{4, 4, 4}, Stride: [3]int{2, 2, 2}, Blend: patch.BlendGaussian}
	smp := testSamples(t, 1, 8)[0]
	wins := sw.Windows(8, 8, 8)
	first, err := patch.Extract(smp, wins[0].Z, wins[0].Y, wins[0].X, wins[0].D, wins[0].H, wins[0].W)
	if err != nil {
		t.Fatal(err)
	}
	for _, wn := range wins[1:] {
		p, err := patch.Extract(smp, wn.Z, wn.Y, wn.X, wn.D, wn.H, wn.W)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(p.Input.Data(), first.Input.Data()) {
			t.Fatalf("window %+v has the held window's input", wn)
		}
	}
	var others atomic.Int64
	others.Store(int64(len(wins) - 1))
	release := make(chan struct{})
	s, err := New(Config{Window: sw, Replicas: 2, MaxBatch: 1, MaxQueue: len(wins)}, func() (Model, error) {
		u, err := unet.New(testNetConfig())
		return lastFirstModel{UNet: u, first: first.Input.Data(), others: &others, release: release}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	got, err := s.Segment(smp.Input)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.Infer(unet.MustNew(testNetConfig()), smp)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Data(), want.Data()) {
		t.Fatal("response differs from the scan-order reference when the first window completes last")
	}
}
