package allreduce

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// codecCfg builds a NetConfig for a named codec.
func codecCfg(t *testing.T, name string) NetConfig {
	t.Helper()
	c, err := CodecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return NetConfig{Gen: 1, OpTimeout: 5 * time.Second, Codec: c}
}

// TestCodecCrossRankBitEqual is the membership invariant under compression:
// whatever the codec loses, every rank loses identically — after AllReduce
// all ranks hold bit-for-bit the same buffer, on flat and hierarchical
// rings, and every transport holds the same bits as every other. For the
// identity codec the result must additionally match the reference
// reduction bit-for-bit (the PR 7 behavior).
func TestCodecCrossRankBitEqual(t *testing.T) {
	for _, name := range CodecNames() {
		for _, n := range layoutWidths {
			for _, gs := range layoutGroupSizes {
				t.Run(fmt.Sprintf("%s/n%d/g%d", name, n, gs), func(t *testing.T) {
					in := randNetBufs(n, 67, int64(7*n+gs))
					want := cloneBufs(in)
					if err := reference(want, gs); err != nil {
						t.Fatal(err)
					}
					var first [][]float32 // the first transport's result
					for _, tr := range transports {
						bufs := cloneBufs(in)
						tops := tr.form(t, n, gs, codecCfg(t, name))
						runAll(t, tops, func(tp *Topology) error { return tp.AllReduce(bufs[tp.Rank()]) })
						for r := 1; r < n; r++ {
							for i := range bufs[0] {
								if math.Float32bits(bufs[r][i]) != math.Float32bits(bufs[0][i]) {
									t.Fatalf("%s: rank %d elem %d diverged: %x vs %x", tr.name, r, i,
										math.Float32bits(bufs[r][i]), math.Float32bits(bufs[0][i]))
								}
							}
						}
						if first == nil {
							first = bufs
						} else {
							assertBitEqual(t, bufs, first)
						}
					}
					if name == "none" {
						assertBitEqual(t, first, want)
						return
					}
					// Lossy, not lost: the agreed result stays within the codec's
					// error bound of the exact sum (coarse sanity — the tight
					// per-codec bounds live in codec_test.go).
					for i := range first[0] {
						if diff := math.Abs(float64(first[0][i] - want[0][i])); diff > 0.3 {
							t.Fatalf("element %d drifted %g from the exact sum %g", i, diff, want[0][i])
						}
					}
				})
			}
		}
	}
}

// TestFP16HalvesWireBytes asserts the acceptance criterion from the
// telemetry counters: the same all-reduce workload moves ≥45% fewer
// gradient payload bytes under fp16 than under none (the exact figure is
// 50% — every chunk payload, first-hop and forwarded alike, is half size).
func TestFP16HalvesWireBytes(t *testing.T) {
	run := func(name string) (payload, raw uint64) {
		p0 := payloadBytes.With(name).Value()
		r0 := payloadRawBytes.With(name).Value()
		const n = 4
		bufs := randNetBufs(n, 1023, 42)
		tops := formAll(t, n, 0, codecCfg(t, name))
		runAll(t, tops, func(tp *Topology) error { return tp.AllReduceAverage(bufs[tp.Rank()]) })
		return payloadBytes.With(name).Value() - p0, payloadRawBytes.With(name).Value() - r0
	}
	nonePayload, noneRaw := run("none")
	fp16Payload, fp16Raw := run("fp16")
	if nonePayload == 0 || fp16Payload == 0 {
		t.Fatalf("payload counters did not move: none=%d fp16=%d", nonePayload, fp16Payload)
	}
	if noneRaw != fp16Raw {
		t.Fatalf("raw gradient bytes differ between codecs: none=%d fp16=%d — workloads not comparable", noneRaw, fp16Raw)
	}
	if nonePayload != noneRaw {
		t.Fatalf("none payload %d != raw %d; identity codec must be 1:1", nonePayload, noneRaw)
	}
	ratio := float64(fp16Payload) / float64(nonePayload)
	if ratio > 0.55 {
		t.Fatalf("fp16 moved %d payload bytes vs none's %d (ratio %.3f) — want ≥45%% reduction", fp16Payload, nonePayload, ratio)
	}
	t.Logf("wire payload bytes: none=%d fp16=%d (ratio %.3f)", nonePayload, fp16Payload, ratio)
}

// TestInt8QuartersWireBytes pins the int8 wire saving: ~4× smaller plus the
// per-chunk 8-byte min/scale header.
func TestInt8QuartersWireBytes(t *testing.T) {
	p0 := payloadBytes.With("int8").Value()
	r0 := payloadRawBytes.With("int8").Value()
	const n = 4
	bufs := randNetBufs(n, 1023, 43)
	tops := formAll(t, n, 0, codecCfg(t, "int8"))
	runAll(t, tops, func(tp *Topology) error { return tp.AllReduceAverage(bufs[tp.Rank()]) })
	payload := payloadBytes.With("int8").Value() - p0
	raw := payloadRawBytes.With("int8").Value() - r0
	if payload == 0 || raw == 0 {
		t.Fatal("int8 counters did not move")
	}
	if ratio := float64(payload) / float64(raw); ratio > 0.30 {
		t.Fatalf("int8 moved %d payload bytes for %d raw (ratio %.3f) — want ≤0.30", payload, raw, ratio)
	}
}

// TestCodecMismatchFailsFast wires two members configured with different
// codecs: formation must fail on every rank, with the mismatch named on at
// least one side (the other may observe it as a closed link or a formation
// timeout, depending on who loses the race).
func TestCodecMismatchFailsFast(t *testing.T) {
	cfgs := []NetConfig{
		{Gen: 1, FormTimeout: 3 * time.Second},
		{Gen: 1, FormTimeout: 3 * time.Second, Codec: mustCodec(t, "fp16")},
	}
	lns := make([]net.Listener, 2)
	members := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			topo, err := FormTopology(lns[r], members, r, 0, cfgs[r])
			if topo != nil {
				topo.Close()
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	mismatch := false
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d formed a topology across a codec mismatch", r)
		}
		if errors.Is(err, ErrCodecMismatch) {
			mismatch = true
		}
	}
	if !mismatch {
		t.Fatalf("no rank reported ErrCodecMismatch: %v / %v", errs[0], errs[1])
	}
}

func mustCodec(t *testing.T, name string) Codec {
	t.Helper()
	c, err := CodecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTopologyCodecAccessor covers the single-member early return: a width-1
// topology still reports its configured codec.
func TestTopologyCodecAccessor(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	topo, err := FormTopology(ln, []string{ln.Addr().String()}, 0, 0, codecCfg(t, "int8"))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	if topo.Codec().Name() != "int8" {
		t.Fatalf("width-1 topology reports codec %q, want int8", topo.Codec().Name())
	}
	buf := []float32{1, 2, 3}
	if err := topo.AllReduce(buf); err != nil {
		t.Fatal(err)
	}
}
