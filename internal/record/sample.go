package record

import (
	"fmt"
	"io"

	"repro/internal/tensor"
	"repro/internal/volume"
)

// Feature keys used for serialized training samples.
const (
	keyName       = "name"
	keyInput      = "input"
	keyInputShape = "input_shape"
	keyMask       = "mask"
	keyMaskShape  = "mask_shape"
)

// MarshalSample encodes a preprocessed sample as a feature payload; this is
// the "binarization" step of the paper's pipeline.
func MarshalSample(s *volume.Sample) []byte {
	f := NewFeatures()
	f.AddBytes(keyName, []byte(s.Name))
	f.AddInts(keyInputShape, toInt64(s.Input.Shape()))
	f.AddFloats(keyInput, s.Input.Data())
	f.AddInts(keyMaskShape, toInt64(s.Mask.Shape()))
	f.AddFloats(keyMask, s.Mask.Data())
	return f.Marshal()
}

// UnmarshalSample decodes a payload produced by MarshalSample.
func UnmarshalSample(payload []byte) (*volume.Sample, error) {
	f, err := Unmarshal(payload)
	if err != nil {
		return nil, err
	}
	name, ok := f.Bytes[keyName]
	if !ok {
		return nil, fmt.Errorf("record: sample missing %q", keyName)
	}
	input, err := tensorFeature(f, keyInput, keyInputShape)
	if err != nil {
		return nil, err
	}
	mask, err := tensorFeature(f, keyMask, keyMaskShape)
	if err != nil {
		return nil, err
	}
	return &volume.Sample{Name: string(name), Input: input, Mask: mask}, nil
}

func tensorFeature(f *Features, dataKey, shapeKey string) (*tensor.Tensor, error) {
	data, ok := f.Floats[dataKey]
	if !ok {
		return nil, fmt.Errorf("record: sample missing %q", dataKey)
	}
	shape64, ok := f.Ints[shapeKey]
	if !ok {
		return nil, fmt.Errorf("record: sample missing %q", shapeKey)
	}
	if len(shape64) == 0 {
		return nil, fmt.Errorf("record: %q has an empty shape", dataKey)
	}
	shape := make([]int, len(shape64))
	n := 1
	for i, d := range shape64 {
		if d <= 0 {
			return nil, fmt.Errorf("record: %q shape %v has a non-positive dimension", dataKey, shape64)
		}
		if d > int64(len(data)/n) { // n·d would exceed the values (or overflow)
			return nil, fmt.Errorf("record: %q shape %v does not match %d values", dataKey, shape64, len(data))
		}
		shape[i] = int(d)
		n *= shape[i]
	}
	if n != len(data) {
		return nil, fmt.Errorf("record: %q shape %v does not match %d values", dataKey, shape, len(data))
	}
	return tensor.FromSlice(data, shape...), nil
}

func toInt64(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

// WriteSamples binarizes samples into a TFRecord stream.
func WriteSamples(w io.Writer, samples []*volume.Sample) error {
	rw := NewWriter(w)
	for _, s := range samples {
		if err := rw.Write(MarshalSample(s)); err != nil {
			return err
		}
	}
	return nil
}

// ReadSamples decodes every sample from a TFRecord stream.
func ReadSamples(r io.Reader) ([]*volume.Sample, error) {
	rr := NewReader(r)
	var out []*volume.Sample
	for {
		payload, err := rr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		s, err := UnmarshalSample(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}
