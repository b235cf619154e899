package train

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/volume"
)

// TestEpochBatchesGolden pins the epoch order Fit trains on: the batches of
// 7 named samples at batch 2, for seeds 0–2. The table was captured from
// the dataset pipeline this order replaced (FromSlice → Shuffle with the
// whole set buffered → Batch dropping the remainder), so every golden that
// trains through Fit keeps its bits.
func TestEpochBatchesGolden(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6"}
	want := map[int64][][]string{
		0: {{"s5", "s0"}, {"s3", "s2"}, {"s4", "s6"}},
		1: {{"s6", "s3"}, {"s2", "s5"}, {"s1", "s0"}},
		2: {{"s4", "s0"}, {"s2", "s5"}, {"s6", "s3"}},
	}
	for seed := int64(0); seed <= 2; seed++ {
		var got [][]string
		for _, idx := range epochBatches(len(names), 2, seed) {
			var b []string
			for _, i := range idx {
				b = append(b, names[i])
			}
			got = append(got, b)
		}
		if !reflect.DeepEqual(got, want[seed]) {
			t.Fatalf("seed %d: batches %q, want %q", seed, got, want[seed])
		}
	}
}

// epochCase is one generated epoch: a training-set size, a batch size from
// 1 to one past the set size, and a shuffle seed.
type epochCase struct {
	N, Size int
	Seed    int64
}

// Generate implements quick.Generator.
func (epochCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(60)
	return reflect.ValueOf(epochCase{N: n, Size: 1 + r.Intn(n+1), Seed: r.Int63()})
}

// TestEpochBatchesProperty: every epoch is a permutation of the training
// set cut into ⌊n/B⌋ full batches, no sample twice and only the remainder
// left out, and the same seed gives the same order.
func TestEpochBatchesProperty(t *testing.T) {
	prop := func(c epochCase) bool {
		batches := epochBatches(c.N, c.Size, c.Seed)
		if len(batches) != c.N/c.Size {
			return false
		}
		seen := make([]bool, c.N)
		for _, b := range batches {
			if len(b) != c.Size {
				return false
			}
			for _, i := range b {
				if i < 0 || i >= c.N || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return reflect.DeepEqual(batches, epochBatches(c.N, c.Size, c.Seed))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochBatchesChangeOrder: the shuffle moves most samples.
func TestEpochBatchesChangeOrder(t *testing.T) {
	inPlace := 0
	for i, b := range epochBatches(100, 1, 1) {
		if b[0] == i {
			inPlace++
		}
	}
	if inPlace > 50 {
		t.Fatalf("shuffle too weak: %d/100 fixed points", inPlace)
	}
}

// TestEpochBatchesDeterministicBySeed: the same seed gives the same order,
// and different seeds differ.
func TestEpochBatchesDeterministicBySeed(t *testing.T) {
	a := epochBatches(50, 1, 7)
	if !reflect.DeepEqual(a, epochBatches(50, 1, 7)) {
		t.Fatal("same seed must give the same order")
	}
	if reflect.DeepEqual(a, epochBatches(50, 1, 8)) {
		t.Fatal("different seeds gave the same order")
	}
}

// TestEpochBatchesReopenable: each call rebuilds the order from the seed
// alone and shares no storage with an earlier call, so an epoch re-read
// (a resumed run) sees the order the first read saw, whatever the caller
// did to the batches it was given.
func TestEpochBatchesReopenable(t *testing.T) {
	a := epochBatches(5, 5, 1)
	want := [][]int{append([]int(nil), a[0]...)}
	a[0][0], a[0][1] = a[0][1], a[0][0]
	if b := epochBatches(5, 5, 1); !reflect.DeepEqual(b, want) {
		t.Fatalf("re-read epoch changed order: %v then %v", want, b)
	}
}

// order returns an epoch's whole shuffled order: its batches at size 1.
func order(n int, seed int64) []int {
	var out []int
	for _, b := range epochBatches(n, 1, seed) {
		out = append(out, b...)
	}
	return out
}

// TestEpochOrderIsPermutation: the shuffle neither loses nor duplicates a
// sample.
func TestEpochOrderIsPermutation(t *testing.T) {
	got := order(100, 1)
	if len(got) != 100 {
		t.Fatalf("length %d", len(got))
	}
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	for i := range sorted {
		if sorted[i] != i {
			t.Fatal("shuffle lost or duplicated a sample")
		}
	}
}

// TestEpochBatchesSliceOrder: the batches are consecutive cuts of the
// epoch's order, first to last.
func TestEpochBatchesSliceOrder(t *testing.T) {
	o := order(7, 4)
	want := [][]int{o[0:3], o[3:6]}
	if got := epochBatches(7, 3, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("batches %v, want %v (order %v)", got, want, o)
	}
}

// TestEpochBatchesDropRemainder: 7 samples at batch 3 make two full
// batches, and the one sample left over is in neither.
func TestEpochBatchesDropRemainder(t *testing.T) {
	o := order(7, 4)
	batches := epochBatches(7, 3, 4)
	if len(batches) != 2 {
		t.Fatalf("%d batches, want 2", len(batches))
	}
	for _, b := range batches {
		if len(b) != 3 {
			t.Fatalf("ragged batch %v", b)
		}
		for _, i := range b {
			if i == o[6] {
				t.Fatalf("remainder sample %d trained in batch %v", i, b)
			}
		}
	}
}

// TestPropertyEpochBatchPartition: for any set and batch size, the batches
// laid end to end are the epoch's order without its remainder — the batch
// size cuts the order and never changes it.
func TestPropertyEpochBatchPartition(t *testing.T) {
	prop := func(c epochCase) bool {
		var flat []int
		for _, b := range epochBatches(c.N, c.Size, c.Seed) {
			flat = append(flat, b...)
		}
		o := order(c.N, c.Seed)
		return len(flat) == c.N/c.Size*c.Size && (len(flat) == 0 || reflect.DeepEqual(flat, o[:len(flat)]))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rampSample is a [1, 4, 3, 2] sample whose every voxel is distinct and
// whose mask equals its input, so a mask flipped differently from its
// input shows as a difference between the two.
func rampSample() *volume.Sample {
	in := tensor.New(1, 4, 3, 2)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	return &volume.Sample{Name: "ramp", Input: in, Mask: in.Clone()}
}

func TestFlipAxisInvolution(t *testing.T) {
	s := samples(t, 1)[0]
	for axis := 1; axis <= 3; axis++ {
		twice := flipAxis(flipAxis(s.Input, axis), axis)
		if tensor.MaxAbsDiff(twice, s.Input) != 0 {
			t.Fatalf("axis %d: double flip is not the identity", axis)
		}
		if tensor.MaxAbsDiff(flipAxis(s.Input, axis), s.Input) == 0 {
			t.Fatalf("axis %d: flip changed nothing", axis)
		}
	}
}

func TestFlipAxisMovesVoxels(t *testing.T) {
	x := tensor.New(1, 2, 2, 3)
	x.Set(7, 0, 0, 0, 0)
	if f := flipAxis(x, 3); f.At(0, 0, 0, 2) != 7 || f.At(0, 0, 0, 0) == 7 {
		t.Fatal("W flip misplaced voxel")
	}
	if f := flipAxis(x, 1); f.At(0, 1, 0, 0) != 7 {
		t.Fatal("D flip misplaced voxel")
	}
	if f := flipAxis(x, 2); f.At(0, 0, 1, 0) != 7 {
		t.Fatal("H flip misplaced voxel")
	}
}

// TestFlipSampleKeepsMaskAligned: whatever axes a draw flips, the input and
// its mask are flipped together, the mask keeps its volume, and the
// caller's sample is left as it was.
func TestFlipSampleKeepsMaskAligned(t *testing.T) {
	s := rampSample()
	orig := s.Input.Clone()
	flipped := 0
	for i := 0; i < 16; i++ {
		out := flipSample(s, 3, 0, i)
		if tensor.MaxAbsDiff(out.Input, out.Mask) != 0 {
			t.Fatalf("sample %d: input and mask flipped differently", i)
		}
		if math.Abs(out.Mask.Sum()-s.Mask.Sum()) > 1e-9 {
			t.Fatalf("sample %d: flip changed the mask's volume", i)
		}
		if tensor.MaxAbsDiff(out.Input, s.Input) != 0 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("test is vacuous: no draw flipped an axis")
	}
	if tensor.MaxAbsDiff(s.Input, orig) != 0 || tensor.MaxAbsDiff(s.Mask, orig) != 0 {
		t.Fatal("flipSample mutated its argument")
	}
}

// TestFlipSampleDeterministicPerIndex: a sample's flips are fixed by the
// seed, the epoch and its index — the same triple reproduces them, and
// across indices they differ.
func TestFlipSampleDeterministicPerIndex(t *testing.T) {
	s := rampSample()
	outcomes := map[string]bool{}
	for i := 0; i < 8; i++ {
		a, b := flipSample(s, 42, 0, i), flipSample(s, 42, 0, i)
		if flipKey(a) != flipKey(b) {
			t.Fatalf("index %d: the same seed, epoch and index flipped differently", i)
		}
		outcomes[flipKey(a)] = true
	}
	if len(outcomes) < 2 {
		t.Fatal("every index drew the same flips")
	}
}

// TestFlipSampleVariesByEpoch: one sample's flips differ across epochs.
func TestFlipSampleVariesByEpoch(t *testing.T) {
	s := rampSample()
	outcomes := map[string]bool{}
	for epoch := 0; epoch < 8; epoch++ {
		outcomes[flipKey(flipSample(s, 3, epoch, 5))] = true
	}
	if len(outcomes) < 2 {
		t.Fatal("every epoch drew the same flips")
	}
}

// flipKey identifies the flips a sample was given by its input voxels.
func flipKey(v *volume.Sample) string { return fmt.Sprint(v.Input.Data()) }
