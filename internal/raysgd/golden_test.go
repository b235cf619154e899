package raysgd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/unet"
)

// fingerprintModel hashes every parameter value and every auxiliary state
// entry (batch-norm running statistics) bit-for-bit, in deterministic order.
// Two models fingerprint equal iff their evaluation behaviour is identical.
func fingerprintModel(m *unet.UNet) uint64 {
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

// TestGoldenFitBitIdentical pins the exact numerical outcome of a session
// built by NewSession for fixed seeds, captured from the pre-train.Session
// implementation (the bespoke epoch loop this package used before the
// unified orchestration API). The session must reproduce every bit: final model
// fingerprint, mean loss and validation Dice. Values are worker-count
// invariant. The two rows were re-captured when the convolution's input
// gradient became one K = OC·K³ dot per element instead of K³ scatter-added
// K = OC dots — the same sum in another order (loss moved in the 9th digit).
// The mirrored-adam row was re-captured when the cyclic learning-rate
// schedule it ran under was deleted: it now trains at the constant scaled
// rate, on the arithmetic of the commit before that deletion.
func TestGoldenFitBitIdentical(t *testing.T) {
	type golden struct {
		params     uint64
		loss, dice uint64
	}
	want := map[string]golden{
		"gemm/seq-sgd":       {params: 0xcdd4b6723c6f87ba, loss: 0x3febeeebd820f6a3, dice: 0x3fb587f45d834805},
		"gemm/mirrored-adam": {params: 0x65880510cf07fe2f, loss: 0x3febd92e7b9fe423, dice: 0x3fb77917fb412a49},
	}

	print := os.Getenv("REPRO_GOLDEN_PRINT") != ""
	for _, variant := range []string{"seq-sgd", "mirrored-adam"} {
		key := "gemm/" + variant
		t.Run(key, func(t *testing.T) {
			var cfg Config
			switch variant {
			case "seq-sgd":
				cfg = testConfig(t, 1)
			case "mirrored-adam":
				cfg = testConfig(t, 2)
				cfg.Optimizer = "adam"
				cfg.BaseLR = 0.002
				cfg.Flip = true
			}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			last, err := fit(t, tr, samples(t, 8), samples(t, 2), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := golden{
				params: fingerprintModel(tr.Strategy().Model()),
				loss:   math.Float64bits(last.MeanLoss),
				dice:   math.Float64bits(last.ValDice),
			}
			if print {
				fmt.Printf("GOLDEN %q: {params: %#x, loss: %#x, dice: %#x},\n", key, got.params, got.loss, got.dice)
				return
			}
			w := want[key]
			if got != w {
				t.Fatalf("golden mismatch for %s:\n got  {params: %#x, loss: %#x, dice: %#x}\n want {params: %#x, loss: %#x, dice: %#x}",
					key, got.params, got.loss, got.dice, w.params, w.loss, w.dice)
			}
		})
	}
}
