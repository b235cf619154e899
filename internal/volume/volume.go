// Package volume implements the preprocessing the paper applies to MSD
// Task 1 volumes: z-score standardization of voxel intensities, cropping the
// 155-slice axis to 152 so three 2x poolings divide evenly, channels-first
// transposition, and binarization of the 4-class ground truth into a whole-
// tumour mask. The binarized task is the only one the repository trains,
// as in the paper; the label constants name the raw classes it merges.
package volume

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Label values of the MSD Task 1 ground truth.
const (
	LabelBackground        = 0
	LabelEdema             = 1
	LabelNonEnhancingTumor = 2
	LabelEnhancingTumor    = 3
	NumClasses             = 4
)

// Volume is a multi-modal 3-D medical image with a voxel-aligned label map.
// Data is stored channels-last as [D][H][W][C] (the NIfTI-native layout),
// mirroring how the raw dataset arrives before the pipeline transposes it.
type Volume struct {
	Channels int
	D, H, W  int
	// Intensities, length D·H·W·Channels, index ((z·H+y)·W+x)·C + c.
	Intensities []float32
	// Labels, length D·H·W, values in [0, NumClasses).
	Labels []uint8
	// Name identifies the case (e.g. "BRATS_001").
	Name string
}

// NewVolume allocates a zeroed volume.
func NewVolume(name string, channels, d, h, w int) *Volume {
	if channels <= 0 || d <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("volume: invalid dims c=%d d=%d h=%d w=%d", channels, d, h, w))
	}
	return &Volume{
		Channels:    channels,
		D:           d,
		H:           h,
		W:           w,
		Intensities: make([]float32, d*h*w*channels),
		Labels:      make([]uint8, d*h*w),
		Name:        name,
	}
}

// VoxelIndex returns the flat index of (z, y, x) in the label array.
func (v *Volume) VoxelIndex(z, y, x int) int { return (z*v.H+y)*v.W + x }

// Intensity returns the intensity of channel c at (z, y, x).
func (v *Volume) Intensity(c, z, y, x int) float32 {
	return v.Intensities[v.VoxelIndex(z, y, x)*v.Channels+c]
}

// SetIntensity writes channel c at (z, y, x).
func (v *Volume) SetIntensity(val float32, c, z, y, x int) {
	v.Intensities[v.VoxelIndex(z, y, x)*v.Channels+c] = val
}

// Standardize shifts and scales each channel to zero mean and unit variance,
// the paper's MRI intensity preprocessing. Channels with zero variance are
// left centred at zero.
func (v *Volume) Standardize() {
	n := v.D * v.H * v.W
	for c := 0; c < v.Channels; c++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(v.Intensities[i*v.Channels+c])
		}
		mean := sum / float64(n)
		var varSum float64
		for i := 0; i < n; i++ {
			d := float64(v.Intensities[i*v.Channels+c]) - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum / float64(n))
		if std == 0 {
			for i := 0; i < n; i++ {
				v.Intensities[i*v.Channels+c] = float32(float64(v.Intensities[i*v.Channels+c]) - mean)
			}
			continue
		}
		for i := 0; i < n; i++ {
			v.Intensities[i*v.Channels+c] = float32((float64(v.Intensities[i*v.Channels+c]) - mean) / std)
		}
	}
}

// CropDepth returns a copy of v truncated to the first depth slices, the
// paper's crop from 155 to 152 slices. It panics if depth exceeds v.D.
func (v *Volume) CropDepth(depth int) *Volume {
	if depth <= 0 || depth > v.D {
		panic(fmt.Sprintf("volume: cannot crop depth %d from %d", depth, v.D))
	}
	out := NewVolume(v.Name, v.Channels, depth, v.H, v.W)
	copy(out.Intensities, v.Intensities[:depth*v.H*v.W*v.Channels])
	copy(out.Labels, v.Labels[:depth*v.H*v.W])
	return out
}

// BinarizeLabels collapses the three tumour classes into a single positive
// label, reproducing the paper's whole-tumour-vs-background task. The result
// is a float mask aligned with the volume's voxels.
func (v *Volume) BinarizeLabels() []float32 {
	out := make([]float32, len(v.Labels))
	for i, l := range v.Labels {
		if l != LabelBackground {
			out[i] = 1
		}
	}
	return out
}

// TumorFraction returns the fraction of voxels carrying any tumour label.
func (v *Volume) TumorFraction() float64 {
	pos := 0
	for _, l := range v.Labels {
		if l != LabelBackground {
			pos++
		}
	}
	return float64(pos) / float64(len(v.Labels))
}

// ToChannelsFirst converts the intensities to a [C, D, H, W] tensor, the
// paper's network input layout.
func (v *Volume) ToChannelsFirst() *tensor.Tensor {
	t := tensor.New(v.Channels, v.D, v.H, v.W)
	td := t.Data()
	spatial := v.D * v.H * v.W
	for i := 0; i < spatial; i++ {
		base := i * v.Channels
		for c := 0; c < v.Channels; c++ {
			td[c*spatial+i] = v.Intensities[base+c]
		}
	}
	return t
}

// LabelMask returns the binarized labels as a [1, D, H, W] tensor.
func (v *Volume) LabelMask() *tensor.Tensor {
	return tensor.FromSlice(v.BinarizeLabels(), 1, v.D, v.H, v.W)
}

// Sample is a preprocessed training example: channels-first input and
// binary mask, both ready to batch.
type Sample struct {
	Name  string
	Input *tensor.Tensor // [C, D, H, W]
	Mask  *tensor.Tensor // [1, D, H, W]
}

// Preprocess applies the full paper pipeline to a raw volume: standardize,
// crop the depth axis to the largest multiple of minDiv, channels-first
// transpose and label binarization.
func Preprocess(v *Volume, minDiv int) (*Sample, error) {
	if minDiv <= 0 {
		return nil, fmt.Errorf("volume: minDiv must be positive, got %d", minDiv)
	}
	depth := (v.D / minDiv) * minDiv
	if depth == 0 {
		return nil, fmt.Errorf("volume: depth %d smaller than divisor %d", v.D, minDiv)
	}
	if v.H%minDiv != 0 || v.W%minDiv != 0 {
		return nil, fmt.Errorf("volume: H=%d W=%d not divisible by %d", v.H, v.W, minDiv)
	}
	work := v
	if depth != v.D {
		work = v.CropDepth(depth)
	} else {
		// Standardize mutates; keep the caller's volume intact.
		work = v.CropDepth(v.D)
	}
	work.Standardize()
	return &Sample{
		Name:  v.Name,
		Input: work.ToChannelsFirst(),
		Mask:  work.LabelMask(),
	}, nil
}

// Batch stacks samples into [N, C, D, H, W] inputs and [N, 1, D, H, W]
// masks. All samples must share a shape. A single-sample batch is a
// zero-copy view aliasing the sample's tensors, so callers must treat the
// returned batch as read-only while the sample is live; multi-sample
// batches are copies.
func Batch(samples []*Sample) (inputs, masks *tensor.Tensor, err error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("volume: empty batch")
	}
	is := samples[0].Input.Shape()
	ms := samples[0].Mask.Shape()
	if len(samples) == 1 {
		// A single-sample batch is the sample itself with a leading batch
		// axis — a zero-copy view, not a copy. Patch-based training and
		// per-sample evaluation loops batch one sample at a time, so this
		// removes a full volume copy per step; callers must treat the
		// batch as read-only while the sample is live (they already do:
		// batches only feed forward passes). View (not Reshape) so a
		// caller recycling the batch cannot pool the live sample's
		// backing.
		inputs = samples[0].Input.View(0, append([]int{1}, is...)...)
		masks = samples[0].Mask.View(0, append([]int{1}, ms...)...)
		return inputs, masks, nil
	}
	inputs = tensor.New(append([]int{len(samples)}, is...)...)
	masks = tensor.New(append([]int{len(samples)}, ms...)...)
	inStride := samples[0].Input.Size()
	maskStride := samples[0].Mask.Size()
	for i, s := range samples {
		if !s.Input.SameShape(samples[0].Input) || !s.Mask.SameShape(samples[0].Mask) {
			return nil, nil, fmt.Errorf("volume: sample %d shape mismatch", i)
		}
		copy(inputs.Data()[i*inStride:(i+1)*inStride], s.Input.Data())
		copy(masks.Data()[i*maskStride:(i+1)*maskStride], s.Mask.Data())
	}
	return inputs, masks, nil
}

// Split partitions n case indices into train/validation/test index sets with
// the paper's 70/15/15 proportions. The split is deterministic in n.
func Split(n int) (train, val, test []int) {
	if n <= 0 {
		return nil, nil, nil
	}
	nTrain := int(math.Round(float64(n) * 0.70))
	nVal := int(math.Round(float64(n) * 0.15))
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	for i := 0; i < n; i++ {
		switch {
		case i < nTrain:
			train = append(train, i)
		case i < nTrain+nVal:
			val = append(val, i)
		default:
			test = append(test, i)
		}
	}
	return train, val, test
}
