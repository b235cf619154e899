package record

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/volume"
)

// rawFeatures hand-encodes a feature map in Marshal's layout, so a seed can
// carry counts and shapes that Marshal itself never writes.
type rawFeatures struct {
	buf   []byte
	count uint32
}

func (r *rawFeatures) add(key string, kind uint8, n uint64, payload []byte) *rawFeatures {
	le := binary.LittleEndian
	r.buf = le.AppendUint32(r.buf, uint32(len(key)))
	r.buf = append(r.buf, key...)
	r.buf = append(r.buf, kind)
	r.buf = le.AppendUint64(r.buf, n)
	r.buf = append(r.buf, payload...)
	r.count++
	return r
}

func (r *rawFeatures) ints(key string, v ...int64) *rawFeatures {
	var p []byte
	for _, x := range v {
		p = binary.LittleEndian.AppendUint64(p, uint64(x))
	}
	return r.add(key, kindInt64, uint64(len(v)), p)
}

func (r *rawFeatures) bytes() []byte {
	return append(binary.LittleEndian.AppendUint32(nil, r.count), r.buf...)
}

// FuzzUnmarshalSample: a stored sample comes back through ckpt.LoadSamples
// (the online controller's restore) and checkpoint loads, so arbitrary
// bytes must decode to a sample or fail with an error — never panic — and a
// decoded sample must survive a re-encode unchanged. The seeds are one valid
// sample and the malformed payloads that used to panic: feature counts of
// 2⁶³ and above (negative once converted to int) for each kind, counts
// whose byte size overflows, and shapes with a zero, negative or no
// dimension.
func FuzzUnmarshalSample(f *testing.F) {
	valid := MarshalSample(&volume.Sample{
		Name:  "case",
		Input: tensor.FromSlice([]float32{1, -2, 3, -4, 5, -6, 7, -8}, 2, 1, 2, 2),
		Mask:  tensor.FromSlice([]float32{0, 1, 1, 0}, 1, 1, 2, 2),
	})
	f.Add(valid)

	four, eight := make([]byte, 4), make([]byte, 8)
	f.Add((&rawFeatures{}).add(keyName, kindBytes, 1<<63, four).bytes())
	f.Add((&rawFeatures{}).add(keyInput, kindFloat32, 1<<63, four).bytes())
	f.Add((&rawFeatures{}).add(keyInputShape, kindInt64, 1<<63, eight).bytes())
	f.Add((&rawFeatures{}).add(keyInput, kindFloat32, 1<<62+1, four).bytes())     // n*4 wraps to 4
	f.Add((&rawFeatures{}).add(keyInputShape, kindInt64, 1<<61+1, eight).bytes()) // n*8 wraps to 8
	// Each bad shape comes with as many values as its dimensions multiply
	// to, so only the shape check stands between it and tensor.FromSlice.
	for _, shape := range [][]int64{{0, 1, 2, 2}, {-1, -1, 2, 2}, {}} {
		n := int64(1)
		for _, d := range shape {
			n *= d
		}
		f.Add((&rawFeatures{}).
			add(keyName, kindBytes, 4, []byte("case")).
			ints(keyInputShape, shape...).
			add(keyInput, kindFloat32, uint64(n), make([]byte, 4*n)).
			ints(keyMaskShape, 1, 1, 2, 2).
			add(keyMask, kindFloat32, 4, make([]byte, 16)).
			bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSample(data)
		if err != nil {
			return
		}
		again, err := UnmarshalSample(MarshalSample(s))
		if err != nil {
			t.Fatalf("re-encoded sample does not decode: %v", err)
		}
		if again.Name != s.Name {
			t.Fatalf("name %q became %q", s.Name, again.Name)
		}
		for _, pair := range [][2]*tensor.Tensor{{s.Input, again.Input}, {s.Mask, again.Mask}} {
			want, got := pair[0], pair[1]
			if !want.SameShape(got) {
				t.Fatalf("shape %v became %v", want.Shape(), got.Shape())
			}
			for i, v := range want.Data() {
				if math.Float32bits(v) != math.Float32bits(got.Data()[i]) {
					t.Fatalf("value %d: %v became %v", i, v, got.Data()[i])
				}
			}
		}
	})
}
