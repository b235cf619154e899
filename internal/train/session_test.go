package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"testing"

	"repro/internal/mirrored"
	"repro/internal/msd"
	"repro/internal/unet"
	"repro/internal/volume"
)

func tinyNet() unet.Config {
	return unet.Config{
		InChannels:  4,
		OutChannels: 1,
		BaseFilters: 2,
		Steps:       2,
		Kernel:      3,
		UpKernel:    2,
		Seed:        5,
	}
}

func samples(t *testing.T, n int) []*volume.Sample {
	t.Helper()
	cfg := msd.Config{Cases: n, D: 8, H: 8, W: 8, Seed: 9}
	out := make([]*volume.Sample, n)
	for i := 0; i < n; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func singleStrategy(t *testing.T, optimizer string, workers int) Strategy {
	t.Helper()
	cfg := tinyNet()
	strat, err := NewSingle(SingleConfig{Net: cfg, Loss: "dice", Optimizer: optimizer, LR: 0.01, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

func mirroredStrategy(t *testing.T, optimizer string, workers int) Strategy {
	t.Helper()
	strat, err := mirrored.New(mirrored.Config{
		Replicas:  2,
		Net:       tinyNet(),
		Loss:      "dice",
		Optimizer: optimizer,
		BaseLR:    0.005,
		ScaleLR:   true,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

// fingerprint hashes parameters and auxiliary state bit-for-bit.
func fingerprint(m *unet.UNet) uint64 {
	h := fnv.New64a()
	var b4 [4]byte
	var b8 [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
			h.Write(b4[:])
		}
	}
	aux := m.AuxState()
	keys := make([]string, 0, len(aux))
	for k := range aux {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		for _, v := range aux[k] {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
			h.Write(b8[:])
		}
	}
	return h.Sum64()
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(Config{Strategy: nil, Epochs: 1, GlobalBatch: 2}); err == nil {
		t.Fatal("nil strategy must error")
	}
	strat := singleStrategy(t, "sgd", 1)
	if _, err := NewSession(Config{Strategy: strat, Epochs: -1, GlobalBatch: 2}); err == nil {
		t.Fatal("negative epochs must error")
	}
	if _, err := NewSession(Config{Strategy: strat, Epochs: 1, GlobalBatch: 0}); err == nil {
		t.Fatal("zero batch must error")
	}
}

func TestSessionFitRecordsHistory(t *testing.T) {
	strat := singleStrategy(t, "sgd", 1)
	sess, err := NewSession(Config{Strategy: strat, Epochs: 3, GlobalBatch: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last, err := sess.Fit(samples(t, 6), samples(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if last.Epoch != 2 || last.Steps != 3 {
		t.Fatalf("last = %+v, want epoch 2 with 3 steps", last)
	}
	if sess.Epoch() != 3 || sess.Step() != 9 {
		t.Fatalf("cursor epoch=%d step=%d, want 3/9", sess.Epoch(), sess.Step())
	}
	hist := sess.History()
	if len(hist) != 3 || hist[2] != *last {
		t.Fatalf("history %+v, want 3 epochs ending in %+v", hist, *last)
	}
	for i, e := range hist {
		if e.Epoch != i || e.Steps != 3 || e.ValDice < 0 || e.ValDice > 1 {
			t.Fatalf("epoch %d recorded as %+v", i, e)
		}
	}
}

func TestSessionCallbackOrderAndPhases(t *testing.T) {
	strat := singleStrategy(t, "sgd", 1)
	var events []string
	rec := &recorder{events: &events}
	sess, err := NewSession(Config{Strategy: strat, Epochs: 1, GlobalBatch: 4, Seed: 1, Callbacks: []Callback{rec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(samples(t, 4), samples(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := []string{"train-begin", "epoch-begin:0", "step-begin:0", "step-end:0", "eval-begin:0", "epoch-end:0", "train-end"}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, events[i], want[i], events)
		}
	}
}

type recorder struct {
	NopCallback
	events *[]string
}

func (r *recorder) OnTrainBegin(*Session) error {
	*r.events = append(*r.events, "train-begin")
	return nil
}
func (r *recorder) OnEpochBegin(_ *Session, e int) error {
	*r.events = append(*r.events, "epoch-begin:"+strconv.Itoa(e))
	return nil
}
func (r *recorder) OnStepBegin(_ *Session, s int) error {
	*r.events = append(*r.events, "step-begin:"+strconv.Itoa(s))
	return nil
}
func (r *recorder) OnStepEnd(_ *Session, s int, _ float64) error {
	*r.events = append(*r.events, "step-end:"+strconv.Itoa(s))
	return nil
}
func (r *recorder) OnEvalBegin(_ *Session, e int) error {
	*r.events = append(*r.events, "eval-begin:"+strconv.Itoa(e))
	return nil
}
func (r *recorder) OnEpochEnd(_ *Session, st EpochStats) error {
	*r.events = append(*r.events, "epoch-end:"+strconv.Itoa(st.Epoch))
	return nil
}
func (r *recorder) OnTrainEnd(*Session) error { *r.events = append(*r.events, "train-end"); return nil }

func TestReportFuncStopsSession(t *testing.T) {
	strat := singleStrategy(t, "sgd", 1)
	count := 0
	sess, err := NewSession(Config{
		Strategy: strat, Epochs: 10, GlobalBatch: 2, Seed: 1,
		Callbacks: []Callback{ReportFunc(func(EpochStats) bool {
			count++
			return count < 2
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(samples(t, 4), nil); err != nil {
		t.Fatal(err)
	}
	if count != 2 || sess.Epoch() != 2 {
		t.Fatalf("reports=%d epochs=%d, want 2/2", count, sess.Epoch())
	}
}

// cacheDropper releases the canonical model's retained inter-step state
// between each epoch's training and evaluation phases — the memory-pressure
// release a callback can make through Strategy.Model.
type cacheDropper struct {
	NopCallback
	n int
}

func (c *cacheDropper) OnEvalBegin(s *Session, _ int) error {
	s.Strategy().Model().DropCaches()
	c.n++
	return nil
}

// TestCacheReleaseBitNeutral: dropping the model's retained caches between
// the train and eval phases must not change a single bit of the training
// trajectory, for either strategy. (unet's TestDropCachesBitNeutralAcrossSteps
// holds the same claim per network, with every buffer released.)
func TestCacheReleaseBitNeutral(t *testing.T) {
	for _, build := range []struct {
		name string
		mk   func(*testing.T) Strategy
	}{
		{"single", func(t *testing.T) Strategy { return singleStrategy(t, "adam", 1) }},
		{"mirrored", func(t *testing.T) Strategy { return mirroredStrategy(t, "adam", 2) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			run := func(cbs ...Callback) uint64 {
				strat := build.mk(t)
				sess, err := NewSession(Config{Strategy: strat, Epochs: 2, GlobalBatch: 2, Seed: 3, Callbacks: cbs})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Fit(samples(t, 4), samples(t, 2)); err != nil {
					t.Fatal(err)
				}
				return fingerprint(strat.Model())
			}
			plain := run()
			drop := &cacheDropper{}
			released := run(drop)
			if drop.n != 2 {
				t.Fatalf("caches dropped %d times, want once per epoch (2)", drop.n)
			}
			if plain != released {
				t.Fatalf("dropping caches changed the training trajectory: %#x vs %#x", plain, released)
			}
		})
	}
}

// evalCounter counts the evaluation phases a Fit runs.
type evalCounter struct {
	NopCallback
	n int
}

func (c *evalCounter) OnEvalBegin(*Session, int) error { c.n++; return nil }

// TestValidationDoesNotAffectTraining: evaluation reads the model and writes
// nothing the training steps read, so a Fit with a validation set trains
// bit for bit as one without — every epoch's mean loss, the parameters
// (ParamHash) and the running statistics — for Single and for a 2-replica
// mirrored strategy.
func TestValidationDoesNotAffectTraining(t *testing.T) {
	for _, build := range []struct {
		name string
		mk   func(*testing.T) Strategy
	}{
		{"single", func(t *testing.T) Strategy { return singleStrategy(t, "adam", 1) }},
		{"mirrored", func(t *testing.T) Strategy { return mirroredStrategy(t, "adam", 2) }},
	} {
		t.Run(build.name, func(t *testing.T) {
			const epochs = 3
			run := func(val []*volume.Sample) (losses []float64, hash string, fp uint64) {
				strat := build.mk(t)
				evals := &evalCounter{}
				sess, err := NewSession(Config{Strategy: strat, Epochs: epochs, GlobalBatch: 2, Seed: 3,
					Callbacks: []Callback{evals}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Fit(samples(t, 4), val); err != nil {
					t.Fatal(err)
				}
				if want := min(len(val), 1) * epochs; evals.n != want {
					t.Fatalf("%d evaluation phases, want %d", evals.n, want)
				}
				for _, e := range sess.History() {
					losses = append(losses, e.MeanLoss)
				}
				return losses, mirrored.ParamHash(strat.Model()), fingerprint(strat.Model())
			}
			wantLosses, wantHash, wantFP := run(nil)
			gotLosses, gotHash, gotFP := run(samples(t, 3))
			if len(gotLosses) != epochs || len(wantLosses) != epochs {
				t.Fatalf("%d and %d epochs recorded, want %d", len(gotLosses), len(wantLosses), epochs)
			}
			for i := range wantLosses {
				if math.Float64bits(gotLosses[i]) != math.Float64bits(wantLosses[i]) {
					t.Fatalf("epoch %d mean loss %v with validation, %v without", i, gotLosses[i], wantLosses[i])
				}
			}
			if gotHash != wantHash {
				t.Fatalf("ParamHash %s with validation, %s without", gotHash, wantHash)
			}
			if gotFP != wantFP {
				t.Fatalf("parameters and running statistics %#x with validation, %#x without", gotFP, wantFP)
			}
		})
	}
}

func TestSessionEmptyTrainErrors(t *testing.T) {
	strat := singleStrategy(t, "sgd", 1)
	sess, err := NewSession(Config{Strategy: strat, Epochs: 1, GlobalBatch: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Fit(nil, nil); err == nil {
		t.Fatal("empty training set must error")
	}
	if _, err := sess.Fit(samples(t, 1), nil); err == nil {
		t.Fatal("global batch larger than the dataset must error")
	}
}
