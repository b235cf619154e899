package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/unet"
)

// finalTrainLoss loads the session checkpoint a finished run left behind and
// returns its last epoch's mean training loss (stored bit-exactly in the
// session state).
func finalTrainLoss(t *testing.T, spec TrainSpec) float64 {
	t.Helper()
	m, err := unet.New(spec.netConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	state, _, err := ckpt.LoadSessionFile(spec.CkptPath, m)
	if err != nil {
		t.Fatal(err)
	}
	hist := state["session.hist.loss"]
	if len(hist) == 0 {
		t.Fatalf("checkpoint %s carries no loss history", spec.CkptPath)
	}
	return hist[len(hist)-1]
}

// TestCodecKillAndRejoinBitIdentical extends the PR 7 acceptance gate to
// compressed gradients: under fp16 and int8 — which also switch on the
// bucketed, comms/compute-overlapped reducer path — a 3-worker run with one
// worker killed mid-training and rejoined from the checkpoint finishes with
// bit-for-bit the parameters of an uninterrupted run under the same codec.
// This is the cross-rank agreement + checkpoint-recovery convergence gate:
// the coordinator fails a run with ErrDesync if rank hashes ever disagree.
func TestCodecKillAndRejoinBitIdentical(t *testing.T) {
	for _, codec := range []string{"fp16", "int8"} {
		t.Run(codec, func(t *testing.T) {
			defer stallWatchdog(t, time.Minute).Stop()
			spec := testSpec(t)
			spec.Codec = codec
			clean, err := runCluster(t, spec, 3, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Gens != 1 || clean.Steps != 4 {
				t.Fatalf("uninterrupted %s run: %d gens, %d steps", codec, clean.Gens, clean.Steps)
			}

			hooks := &Hooks{
				AfterStep: func(gen uint32, rank, step int) error {
					if gen == 1 && rank == 1 && step == 1 {
						return ErrKilled
					}
					return nil
				},
			}
			spec2 := testSpec(t)
			spec2.Codec = codec
			killed, err := runCluster(t, spec2, 3, hooks, nil)
			if err != nil {
				t.Fatal(err)
			}
			if killed.Gens < 2 || killed.Reforms < 1 {
				t.Fatalf("kill was not recovered through a reform: %d gens, %d reforms", killed.Gens, killed.Reforms)
			}
			if killed.Width != 3 {
				t.Fatalf("finished at width %d, want the rejoined full width 3", killed.Width)
			}
			if killed.Hash != clean.Hash {
				t.Fatalf("%s: final parameters diverged: killed run %s, uninterrupted %s", codec, killed.Hash, clean.Hash)
			}
		})
	}
}

// TestBucketedNoneDeterministic forces the overlapped bucketed reducer under
// the identity codec (tiny buckets, so every step streams several) and
// checks the path is deterministic: two identical runs agree bit-for-bit.
// The bucketed hash legitimately differs from the monolithic default — the
// flatten grouping changes float accumulation order — which is exactly why
// codec=none keeps the monolithic path unless BucketKB is set explicitly.
func TestBucketedNoneDeterministic(t *testing.T) {
	run := func() string {
		spec := testSpec(t)
		spec.BucketKB = 1 // ~256 floats per bucket → many buckets per step
		res, err := runCluster(t, spec, 3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gens != 1 || res.Steps != 4 {
			t.Fatalf("bucketed run: %d gens, %d steps", res.Gens, res.Steps)
		}
		return res.Hash
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical bucketed runs diverged: %s vs %s", a, b)
	}
}

// TestFP16LossWithinTolerance is the accuracy acceptance gate: the same
// training plan run uncompressed and under fp16 gradient compression must
// end with final training losses within the documented tolerance (BENCH.md:
// |Δloss| ≤ 0.05 on the phantom task — fp16 keeps ~2⁻¹¹ relative gradient
// error, far below the signal).
func TestFP16LossWithinTolerance(t *testing.T) {
	lossFor := func(codec string) float64 {
		spec := testSpec(t)
		spec.Codec = codec
		if _, err := runCluster(t, spec, 3, nil, nil); err != nil {
			t.Fatal(err)
		}
		return finalTrainLoss(t, spec)
	}
	none := lossFor("none")
	fp16 := lossFor("fp16")
	if math.IsNaN(none) || math.IsNaN(fp16) {
		t.Fatalf("final losses: none=%g fp16=%g", none, fp16)
	}
	if diff := math.Abs(none - fp16); diff > 0.05 {
		t.Fatalf("fp16 final loss %g drifted %g from uncompressed %g (documented tolerance 0.05)", fp16, diff, none)
	}
	t.Logf("final train loss: none=%g fp16=%g (|Δ|=%g)", none, fp16, math.Abs(none-fp16))
}

// TestSpecValidationCodec: unknown codec names and an indivisible batch
// reach the worker as a named validation error, not a runtime surprise.
func TestSpecValidationCodec(t *testing.T) {
	spec := testSpec(t)
	spec.Codec = "zstd"
	if err := spec.Validate(); err == nil {
		t.Fatal("spec with an unknown codec validated")
	}
	spec.Codec = "fp16"
	if err := spec.Validate(); err != nil {
		t.Fatalf("fp16 spec rejected: %v", err)
	}
	spec.Codec = ""
	if err := spec.Validate(); err != nil {
		t.Fatalf("empty codec (= none) rejected: %v", err)
	}
}
