package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// overflowShapes are volume shapes whose voxel count overflows int (w bits
// wide). Taken modulo 2^w the count wraps to 0, to a small positive number
// or to a negative one, so a decoder that multiplies first and compares
// afterwards lets the first two through holding the wrapped number of
// floats. The last is past maxVoxels without overflowing.
var overflowShapes = [][]int{
	{4, 1 << (bits.UintSize / 2), 1 << (bits.UintSize / 2), 16},  // 2^(w+6): wraps to 0
	{1<<(bits.UintSize-2) + 1, 4, 1, 1},                          // 2^w + 4: wraps to 4
	{3, math.MaxUint/3 + 1, 1, 1},                                // 2^w + 2: wraps to 2
	{1 << (bits.UintSize / 2), 1 << (bits.UintSize/2 - 1), 1, 1}, // 2^(w-1): wraps negative
	{1, 1 << 10, 1 << 10, 1<<10 + 1},
}

// wrapped is what multiplying shape's dimensions in int leaves: the count a
// decoder that checks only the product would see.
func wrapped(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// floatBytes is n little-endian float32s, 0.5 each.
func floatBytes(n int) []byte {
	raw := make([]byte, 4*max(n, 0))
	for i := 0; i < len(raw); i += 4 {
		binary.LittleEndian.PutUint32(raw[i:], math.Float32bits(0.5))
	}
	return raw
}

// TestDecodersRejectOverflowingShapes: every decoder of a volume — binary
// and JSON, request and feedback (its input and its mask) — rejects a shape
// whose voxel count overflows int, given as many floats as the wrapped
// count asks for (none where it is not small and positive).
func TestDecodersRejectOverflowingShapes(t *testing.T) {
	for _, shape := range overflowShapes {
		n := wrapped(shape)
		if n < 0 || n > 64 {
			n = 0
		}
		hdr := shapeHeader(shape)
		floats := make([]float32, n)
		good := volumeJSON{Shape: []int{1, 2, 2, 2}, Data: make([]float32, 8)}
		bad := volumeJSON{Shape: shape, Data: floats}
		decoders := map[string]func() error{
			"binary volume": func() error {
				_, err := readBinaryVolume(bytes.NewReader(floatBytes(n)), hdr)
				return err
			},
			"JSON volume": func() error {
				body, _ := json.Marshal(bad)
				_, err := readJSONVolume(bytes.NewReader(body))
				return err
			},
			"binary feedback input": func() error {
				body := append(floatBytes(n), floatBytes(8)...)
				_, err := readBinaryFeedback(bytes.NewReader(body), hdr, "1,2,2,2")
				return err
			},
			"binary feedback mask": func() error {
				body := append(floatBytes(8), floatBytes(n)...)
				_, err := readBinaryFeedback(bytes.NewReader(body), "1,2,2,2", hdr)
				return err
			},
			"JSON feedback input": func() error {
				body, _ := json.Marshal(feedbackJSON{Input: bad, Mask: good})
				_, err := readJSONFeedback(bytes.NewReader(body))
				return err
			},
			"JSON feedback mask": func() error {
				body, _ := json.Marshal(feedbackJSON{Input: good, Mask: bad})
				_, err := readJSONFeedback(bytes.NewReader(body))
				return err
			},
		}
		for name, decode := range decoders {
			t.Run(fmt.Sprintf("%s_%s", name, hdr), func(t *testing.T) {
				if err := decode(); err == nil {
					t.Fatalf("shape %v (wrapping to %d voxels) accepted", shape, wrapped(shape))
				}
			})
		}
	}
}

// FuzzReadBinaryVolume feeds readBinaryVolume an X-Volume-Shape header and a
// body. It must either fail or return a tensor whose shape's voxel count —
// computed without overflow — equals its length and is at most maxVoxels;
// and then shapeHeader and writeBinaryVolume must give back the accepted
// bytes, which read again give the same tensor, bit for bit. Its seeds
// (testdata/fuzz/FuzzReadBinaryVolume) include the overflowing headers.
func FuzzReadBinaryVolume(f *testing.F) {
	f.Fuzz(func(t *testing.T, hdr string, body []byte) {
		x, err := readBinaryVolume(bytes.NewReader(body), hdr)
		if err != nil {
			return
		}
		count := uint64(1)
		for _, d := range x.Shape() {
			hi, lo := bits.Mul64(count, uint64(d))
			if d <= 0 || hi != 0 {
				t.Fatalf("accepted shape %v from header %q: its voxel count overflows", x.Shape(), hdr)
			}
			count = lo
		}
		if count != uint64(len(x.Data())) || count > maxVoxels {
			t.Fatalf("accepted shape %v (%d voxels) holding %d floats, limit %d", x.Shape(), count, len(x.Data()), maxVoxels)
		}
		var out bytes.Buffer
		writeBinaryVolume(&out, x)
		if !bytes.Equal(out.Bytes(), body[:4*count]) {
			t.Fatalf("writeBinaryVolume does not give back the %d accepted bytes", 4*count)
		}
		again, err := readBinaryVolume(bytes.NewReader(out.Bytes()), shapeHeader(x.Shape()))
		if err != nil {
			t.Fatalf("re-reading the written volume: %v", err)
		}
		if !slices.Equal(again.Shape(), x.Shape()) {
			t.Fatalf("shape %v read back as %v", x.Shape(), again.Shape())
		}
		for i, v := range again.Data() {
			if math.Float32bits(v) != math.Float32bits(x.Data()[i]) {
				t.Fatalf("voxel %d read back as %#08x, was %#08x", i, math.Float32bits(v), math.Float32bits(x.Data()[i]))
			}
		}
	})
}
