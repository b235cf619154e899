package ckpt

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/unet"
)

// fixture is a session checkpoint of fixtureNet's architecture written by
// an earlier layout of the U-Net (see train's
// TestResumeFromParentLayoutCheckpoint).
const fixture = "../train/testdata/session_parent_layout.ckpt"

func fixtureNet() *unet.UNet {
	return unet.MustNew(unet.Config{
		InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2,
		Kernel: 3, UpKernel: 2, Seed: 5,
	})
}

// frame wraps a feature-map payload in one TFRecord record.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	record.NewWriter(&buf).Write(payload)
	return buf.Bytes()
}

// rawFeature hand-encodes a one-feature map in record.Marshal's layout, so
// a seed can carry counts Marshal never writes. Kinds: 0 bytes, 1 float32,
// 2 int64.
func rawFeature(key string, kind uint8, n uint64, payload []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 1)
	b = le.AppendUint32(b, uint32(len(key)))
	b = append(append(b, key...), kind)
	return append(le.AppendUint64(b, n), payload...)
}

// FuzzLoad: arbitrary bytes, read as a checkpoint stream and as one framed
// payload (the framing's CRC would otherwise stop almost every mutation
// before the feature map), must either fail with an error or load. A load
// must then survive Save → Load into a fresh network bit-identically:
// parameters, auxiliary state and session state. The seeds are the
// checked-in session fixture, that fixture truncated, its payload with the
// last parameter name dropped (fewer names than parameter records) and
// feature counts of 2⁶³; testdata/fuzz/FuzzLoad holds more.
func FuzzLoad(f *testing.F) {
	valid, err := os.ReadFile(fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	payload, err := record.NewReader(bytes.NewReader(valid)).Next()
	if err != nil {
		f.Fatal(err)
	}
	feats, err := record.Unmarshal(payload)
	if err != nil {
		f.Fatal(err)
	}
	names := strings.Split(string(feats.Bytes["names"]), "\x00")
	feats.Bytes["names"] = []byte(strings.Join(names[:len(names)-2], "\x00") + "\x00")
	f.Add(feats.Marshal())
	eight := make([]byte, 8)
	f.Add(rawFeature("names", 0, 1<<63, eight))
	f.Add(rawFeature("param:enc1.a.w", 1, 1<<63, eight))
	f.Add(rawFeature("aux:enc1.a.running_mean", 2, 1<<63, eight))

	into, back := fixtureNet(), fixtureNet()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frame(data)} {
			state, err := Load(bytes.NewReader(in), into)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := Save(&buf, into, state); err != nil {
				t.Fatalf("a loaded checkpoint does not save: %v", err)
			}
			again, err := Load(&buf, back)
			if err != nil {
				t.Fatalf("a re-saved checkpoint does not load: %v", err)
			}
			if err := sameBits(into, back, state, again); err != nil {
				t.Fatalf("Save → Load changed the checkpoint: %v", err)
			}
		}
	})
}
