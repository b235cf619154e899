package dist

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/telemetry"
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
	state, err := ckpt.LoadFile(spec.CkptPath, m)
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

// commWaitCount reads train_phase_ns_count{phase="comm_wait"} from the
// process-wide registry's Prometheus page; 0 while nothing has registered it.
func commWaitCount(t *testing.T) float64 {
	t.Helper()
	var page bytes.Buffer
	if err := telemetry.WriteText(&page, telemetry.Default()); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `train_phase_ns_count{phase="comm_wait"} `); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestFP16LossWithinTolerance is the accuracy acceptance gate: the same
// training plan run uncompressed and under fp16 gradient compression must
// end with final training losses within the documented tolerance (BENCH.md:
// |Δloss| ≤ 0.05 on the phantom task — fp16 keeps ~2⁻¹¹ relative gradient
// error, far below the signal). It also checks that TrainSpec.Codec reaches
// the wire: the fp16 run ends on other parameters than the uncompressed one,
// sends exactly half the raw gradient bytes, and its workers report their
// overlapped reducer's stalls as the comm_wait training phase.
func TestFP16LossWithinTolerance(t *testing.T) {
	lossFor := func(codec string) (float64, string) {
		spec := testSpec(t)
		spec.Codec = codec
		res, err := runCluster(t, spec, 3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return finalTrainLoss(t, spec), res.Hash
	}
	none, noneHash := lossFor("none")
	waits := commWaitCount(t)
	payload := telemetry.Default().CounterVec("allreduce_payload_bytes_total", "", "codec", "fp16").With("fp16")
	raw := telemetry.Default().CounterVec("allreduce_payload_raw_bytes_total", "", "codec", "fp16").With("fp16")
	p0, r0 := payload.Value(), raw.Value()
	fp16, fp16Hash := lossFor("fp16")
	if commWaitCount(t) <= waits {
		t.Errorf("the fp16 run recorded no comm_wait phase (count stayed at %v)", waits)
	}
	if fp16Hash == noneHash {
		t.Errorf("the fp16 run ended on the uncompressed run's parameters (%s): the codec was not applied", noneHash)
	}
	if dp, dr := payload.Value()-p0, raw.Value()-r0; dr == 0 || 2*dp != dr {
		t.Errorf("fp16 run sent %v payload bytes for %v raw gradient bytes, want exactly half", dp, dr)
	}
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
