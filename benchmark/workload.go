package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"repro/internal/msd"
	"repro/internal/tensor"
	"repro/internal/unet"
	"repro/internal/volume"
)

// sizes fixes everything about the inputs except their seed. fullSizes is
// the benchmark; smokeSizes is the same code at toy extents, for the tests.
type sizes struct {
	dim         int // phantom edge: training volumes and serve windows are dim³
	baseFilters int
	netSteps    int

	trainCases, valCases int // train_single dataset
	batch                int // per-replica batch everywhere
	markEpoch            int // train_single records ParamHash and val Dice after this many timed epochs

	campTrain, campVal, campEpochs int // campaign dataset caps and epochs per trial

	serveVolumes int // serve cycles this many [4, dim, 2·dim, 2·dim] volumes (4 windows each)

	setupReps    int // set-up is repeated this often and its median reported
	calRuns      int // reference-kernel runs per speed reading (calib.go); ×3 around a campaign
	probeReps    int // timed repetitions of each layer probe
	gemmN        int // square GEMM edge for the peak measurement
	tracedEpochs int // traced train window: this many epochs untraced, then as many traced
	distSteps    int // steps per codec in the dist probe
}

var fullSizes = sizes{
	dim: 16, baseFilters: 8, netSteps: 3,
	trainCases: 16, valCases: 4, batch: 2, markEpoch: 5,
	campTrain: 8, campVal: 2, campEpochs: 2,
	serveVolumes: 4,
	setupReps:    3, calRuns: 3, probeReps: 5, gemmN: 384, tracedEpochs: 2, distSteps: 4,
}

var smokeSizes = sizes{
	dim: 8, baseFilters: 2, netSteps: 2,
	trainCases: 4, valCases: 2, batch: 2, markEpoch: 1,
	campTrain: 4, campVal: 2, campEpochs: 1,
	serveVolumes: 2,
	setupReps:    1, calRuns: 1, probeReps: 1, gemmN: 64, tracedEpochs: 1, distSteps: 2,
}

// params is one run's inputs: the sizes, the seed everything derives from,
// and the length of the timed window.
type params struct {
	sizes
	seed    int64
	seconds float64
}

// sub derives an independent stream seed for one purpose from the run seed
// (splitmix64 over the seed and a hash of the label), so the dataset, the
// network initialisation, the shuffle and the serve volumes never share a
// stream and changing one consumer cannot shift another's bytes.
func (p params) sub(label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(p.seed)*0x9E3779B97F4A7C15 + h.Sum64()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // non-negative: msd and rand seeds are added to
}

// net is bench_net: the paper U-Net at BaseFilters 8, Steps 3 (99 769
// parameters), initialised from the run seed.
func (p params) net() unet.Config {
	c := unet.PaperConfig()
	c.BaseFilters, c.Steps = p.baseFilters, p.netSteps
	c.Seed = p.sub("net")
	return c
}

// inputHasher accumulates the bytes of every generated tensor; the printed
// hash is how two runs show they measured the same inputs.
type inputHasher struct{ h hash.Hash64 }

func newInputHasher() *inputHasher { return &inputHasher{fnv.New64a()} }

func (ih *inputHasher) add(ts ...*tensor.Tensor) {
	var b [4]byte
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			ih.h.Write(b[:])
		}
	}
}

func (ih *inputHasher) addSamples(ss []*volume.Sample) {
	for _, s := range ss {
		ih.add(s.Input, s.Mask)
	}
}

func (ih *inputHasher) sum() string { return fmt.Sprintf("%016x", ih.h.Sum64()) }

// phantoms generates n preprocessed d×h×w cases from one msd stream.
func phantoms(seed int64, n, d, h, w, minDiv int) ([]*volume.Sample, error) {
	cfg := msd.Config{Cases: n, D: d, H: h, W: w, Seed: seed}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*volume.Sample, n)
	for i := range out {
		s, err := volume.Preprocess(msd.GenerateCase(cfg, i), minDiv)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// trainData is train_single's dataset: trainCases + valCases phantoms from
// one stream, the first trainCases for training.
func (p params) trainData() (train, val []*volume.Sample, err error) {
	all, err := phantoms(p.sub("train-data"), p.trainCases+p.valCases, p.dim, p.dim, p.dim, p.net().MinVolume())
	if err != nil {
		return nil, nil, err
	}
	return all[:p.trainCases], all[p.trainCases:], nil
}

// campaignDataset is the msd config core.Run generates the campaign data
// from: the 70/15/15 split of campTrain·3/2 cases holds campTrain training
// cases (12 → 8 train, 2 val at full size); core.Run caps the rest.
func (p params) campaignDataset() msd.Config {
	return msd.Config{Cases: p.campTrain * 3 / 2, D: p.dim, H: p.dim, W: p.dim, Seed: p.sub("campaign-data")}
}

// serveVolumesData is the serve request mix: [4, dim, 2·dim, 2·dim] volumes,
// four disjoint dim³ windows each.
func (p params) serveVolumesData() ([]*volume.Sample, error) {
	return phantoms(p.sub("serve-data"), p.serveVolumes, p.dim, 2*p.dim, 2*p.dim, p.net().MinVolume())
}

// sameBits reports whether two tensors hold bitwise-identical data.
func sameBits(a, b *tensor.Tensor) bool {
	x, y := a.Data(), b.Data()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}
