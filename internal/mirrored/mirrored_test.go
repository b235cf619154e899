package mirrored

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/allreduce"
	"repro/internal/loss"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/unet"
)

func tinyNet() unet.Config {
	return unet.Config{
		InChannels:  2,
		OutChannels: 1,
		BaseFilters: 2,
		Steps:       2,
		Kernel:      3,
		UpKernel:    2,
		Seed:        11,
	}
}

func trainerConfig(replicas int) Config {
	return Config{
		Replicas:  replicas,
		Net:       tinyNet(),
		Loss:      "dice",
		Optimizer: "sgd",
		BaseLR:    0.05,
		ScaleLR:   false,
	}
}

func randBatch(seed int64, n int) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.Randn(rng, 0, 1, n, 2, 4, 4, 4)
	mask := tensor.New(n, 1, 4, 4, 4)
	for i := range mask.Data() {
		if rng.Float64() < 0.35 {
			mask.Data()[i] = 1
		}
	}
	return in, mask
}

func TestNewValidation(t *testing.T) {
	if _, err := New(trainerConfig(0)); err == nil {
		t.Fatal("0 replicas must error")
	}
	bad := trainerConfig(1)
	bad.Loss = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown loss must error")
	}
	bad = trainerConfig(1)
	bad.Optimizer = "nope"
	if _, err := New(bad); err == nil {
		t.Fatal("unknown optimizer must error")
	}
	bad = trainerConfig(1)
	bad.Net.Steps = 0
	if _, err := New(bad); err == nil {
		t.Fatal("bad net config must error")
	}
}

func TestLRScalingRule(t *testing.T) {
	cfg := trainerConfig(4)
	cfg.BaseLR = 1e-4
	cfg.ScaleLR = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: initial learning rate is 1e-4 × #GPUs.
	if math.Abs(tr.LR()-4e-4) > 1e-12 {
		t.Fatalf("lr %v, want 4e-4", tr.LR())
	}
}

func TestStepValidation(t *testing.T) {
	tr, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(1, 3) // 3 not divisible by 2
	if _, err := tr.Step(in, mask); err == nil {
		t.Fatal("indivisible batch must error")
	}
	in, _ = randBatch(1, 2)
	_, mask = randBatch(2, 4)
	if _, err := tr.Step(in, mask); err == nil {
		t.Fatal("mask batch mismatch must error")
	}
}

func TestReplicasStayInSync(t *testing.T) {
	tr, err := New(trainerConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.InSync() {
		t.Fatal("fresh replicas must agree")
	}
	for step := 0; step < 3; step++ {
		in, mask := randBatch(int64(step), 4)
		if _, err := tr.Step(in, mask); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.InSync() {
		t.Fatal("replicas diverged after synchronous steps")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	tr, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(7, 4)
	var first, last float64
	for step := 0; step < 40; step++ {
		l, err := tr.Step(in, mask)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = l
		}
		last = l
	}
	if !(last < first*0.85) {
		t.Fatalf("loss did not drop: %v -> %v", first, last)
	}
}

// TestShardingEquivalence verifies that one 2-replica step applies exactly
// the update of one replica that averages the two half-batch gradients by
// hand — the defining property of synchronous data parallelism.
func TestShardingEquivalence(t *testing.T) {
	in, mask := randBatch(9, 2)

	// Reference: one model, the two half-batch gradients averaged by hand,
	// then the optimizer the trainer runs.
	ref := unet.MustNew(tinyNet())
	dice := loss.NewDice()
	var halves [2][][]float32
	for i := range halves {
		ref.ZeroGrads()
		_, grad := dice.Eval(ref.Forward(in.Slice(i, i+1)), mask.Slice(i, i+1))
		ref.Backward(grad)
		for _, p := range ref.Params() {
			halves[i] = append(halves[i], append([]float32(nil), p.Grad.Data()...))
		}
	}
	for j, p := range ref.Params() {
		g := p.Grad.Data()
		for k := range g {
			g[k] = (halves[0][j][k] + halves[1][j][k]) / 2
		}
	}
	opt, err := optim.ByName("sgd", trainerConfig(2).BaseLR)
	if err != nil {
		t.Fatal(err)
	}
	opt.Step(ref.Params())

	tr, err := New(trainerConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(in, mask); err != nil {
		t.Fatal(err)
	}
	for j, p := range tr.Model().Params() {
		want := ref.Params()[j]
		for k, g := range p.Grad.Data() {
			if math.Abs(float64(g-want.Grad.Data()[k])) > 1e-5 {
				t.Fatalf("param %d grad %d: mirrored %v vs averaged %v", j, k, g, want.Grad.Data()[k])
			}
		}
		for k, v := range p.Value.Data() {
			if math.Abs(float64(v-want.Value.Data()[k])) > 1e-5 {
				t.Fatalf("param %d value %d: mirrored %v vs reference %v", j, k, v, want.Value.Data()[k])
			}
		}
	}
}

// TestStepSendsNothingOnTheWire: the replicas reduce over in-process links,
// so a step leaves the socket counters alone — what the multi-process
// byte and frame accounting relies on when both run in one process — while
// the payload counters still see the collectives.
func TestStepSendsNothingOnTheWire(t *testing.T) {
	reg := telemetry.Default()
	var wire []*telemetry.Counter
	for _, name := range []string{"allreduce_tx_bytes_total", "allreduce_rx_bytes_total",
		"allreduce_tx_frames_total", "allreduce_rx_frames_total"} {
		wire = append(wire, reg.Counter(name, ""))
	}
	before := make([]uint64, len(wire))
	for i, c := range wire {
		before[i] = c.Value()
	}
	raw := reg.CounterVec("allreduce_payload_raw_bytes_total", "", "codec", "none").With("none")
	raw0 := raw.Value()
	cfg := trainerConfig(4)
	cfg.GroupSize = 2
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(21, 4)
	if _, err := tr.Step(in, mask); err != nil {
		t.Fatal(err)
	}
	for i, c := range wire {
		if c.Value() != before[i] {
			t.Fatalf("wire counter %d moved %d → %d during an in-process step", i, before[i], c.Value())
		}
	}
	if raw.Value() == raw0 {
		t.Fatal("the step's all-reduce recorded no payload bytes")
	}
	if !tr.InSync() {
		t.Fatal("hierarchical replicas diverged")
	}
}

// TestBucketedNoneDeterministic forces the overlapped bucketed reduction
// under the identity codec — 1 KiB buckets, so every step streams several
// — and checks the path is deterministic: both ranks, and two identical
// runs, end with the same parameters bit for bit. The bucketed bits may
// differ from the monolithic step's, since the flatten grouping changes
// the accumulation order; that is why only lossy codecs bucket by default.
func TestBucketedNoneDeterministic(t *testing.T) {
	run := func() [2]string {
		topos := allreduce.LocalTopologies(2, 0, allreduce.NetConfig{})
		var ranks [2]*Rank
		for r := range ranks {
			rk, err := NewRank(topos[r], tinyNet(), "dice", "adam", 0.01, false)
			if err != nil {
				t.Fatal(err)
			}
			rk.SetBucketBytes(1 << 10)
			ranks[r] = rk
		}
		var wg sync.WaitGroup
		var errs [2]error
		for r, rk := range ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for step := 0; step < 4; step++ {
					in, mask := randBatch(int64(40+step), 4)
					if _, err := rk.Step(in, mask); err != nil {
						errs[r] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		var hashes [2]string
		for r, rk := range ranks {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			hashes[r] = ParamHash(rk.Model())
		}
		return hashes
	}
	a, b := run(), run()
	if a[0] != a[1] || b[0] != b[1] {
		t.Fatalf("bucketed ranks diverged: run 1 %v, run 2 %v", a, b)
	}
	if a != b {
		t.Fatalf("two identical bucketed runs diverged: %v vs %v", a, b)
	}
}

func TestEvaluateReturnsDice(t *testing.T) {
	tr, err := New(trainerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	in, mask := randBatch(13, 1)
	d := tr.Evaluate(in, mask)
	if d < 0 || d > 1 {
		t.Fatalf("dice %v out of range", d)
	}
}

func TestSetLRPropagates(t *testing.T) {
	tr, err := New(trainerConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLR(0.123)
	if tr.LR() != 0.123 {
		t.Fatal("SetLR not applied")
	}
	// All replicas must share the rate, or they would diverge.
	for _, r := range tr.ranks {
		if r.LR() != 0.123 {
			t.Fatal("replica LR out of sync")
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	u := unet.MustNew(tinyNet())
	rng := rand.New(rand.NewSource(3))
	for _, p := range u.Params() {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = float32(rng.NormFloat64())
		}
	}
	flat := flattenGrads(nil, u.Params())
	u2 := unet.MustNew(tinyNet())
	unflattenGrads(u2.Params(), flat)
	for i, p := range u.Params() {
		if tensor.MaxAbsDiff(p.Grad, u2.Params()[i].Grad) != 0 {
			t.Fatal("flatten/unflatten corrupted gradients")
		}
	}
}

// TestStepScopeFollowsBudget: a width-1 step at a budget of one opens no
// step scope and hands nothing to a helper; at two it runs inside a scope,
// which is closed again when Step returns. A wider step opens none.
func TestStepScopeFollowsBudget(t *testing.T) {
	forks := telemetry.Default().Counter("parallel_forks_total", "")
	for _, workers := range []int{1, 2} {
		net := tinyNet()
		net.Workers = workers
		rk, err := NewRank(allreduce.LocalTopologies(1, 0, allreduce.NetConfig{})[0], net, "dice", "adam", 1e-3, false)
		if err != nil {
			t.Fatal(err)
		}
		inStep := false
		rk.SetPhaseObserver(func(string, time.Duration) { inStep = inStep || parallel.InStep() })
		in, mask := randBatch(5, 2)
		before := forks.Value()
		if _, err := rk.Step(in, mask); err != nil {
			t.Fatal(err)
		}
		forked := forks.Value() - before
		if workers == 1 && (inStep || forked != 0) {
			t.Errorf("budget-1 step: in a step scope %v, %d forks; want neither", inStep, forked)
		}
		if workers == 2 && (!inStep || forked == 0) {
			t.Errorf("budget-2 step: in a step scope %v, %d forks; want both", inStep, forked)
		}
		if parallel.InStep() {
			t.Fatalf("budget-%d step left a step scope open", workers)
		}
	}
	// Two ranks of two workers each: a step that waits on a peer opens none.
	cfg := trainerConfig(2)
	cfg.Workers = 4
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inStep := false
	tr.SetPhaseObserver(func(string, time.Duration) { inStep = inStep || parallel.InStep() })
	in, mask := randBatch(6, 2)
	if _, err := tr.Step(in, mask); err != nil {
		t.Fatal(err)
	}
	if inStep {
		t.Error("a width-2 step opened a step scope")
	}
}
