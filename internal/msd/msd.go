// Package msd generates a synthetic stand-in for the MSD "Task 1" Brain
// Tumour dataset the paper benchmarks on. Real MSD data is a gated download,
// so this package builds multi-modal brain phantoms with the same structure:
// four MRI modalities (FLAIR, T1w, T1gd, T2w), four ground-truth classes
// (background, edema, non-enhancing tumour, enhancing tumour), heavy class
// imbalance, and per-case anatomical variation. Phantoms are deterministic
// in (seed, case index) so distributed workers can regenerate identical
// datasets without sharing files.
package msd

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/nifti"
	"repro/internal/volume"
)

// Modalities of MSD Task 1, in channel order.
var Modalities = []string{"FLAIR", "T1w", "T1gd", "T2w"}

// PaperCases is the number of cases in the real MSD Task 1 dataset.
const PaperCases = 484

// Config controls phantom generation.
type Config struct {
	Cases   int   // number of cases to generate
	D, H, W int   // volume extent (paper: 155 x 240 x 240)
	Seed    int64 // base seed; case i uses Seed + i
}

// DefaultConfig returns a laptop-scale dataset: the paper's 484-case count
// is kept but volumes are shrunk so pure-Go training remains tractable.
func DefaultConfig() Config {
	return Config{Cases: PaperCases, D: 16, H: 24, W: 24, Seed: 7}
}

// PaperShapeConfig returns a config with the paper's full volume extent
// (155 slices of 240x240), too large for real pure-Go training; the
// analytic model in internal/experiments costs its 152-slice crop.
func PaperShapeConfig() Config {
	return Config{Cases: PaperCases, D: 155, H: 240, W: 240, Seed: 7}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Cases <= 0 {
		return fmt.Errorf("msd: Cases must be positive, got %d", c.Cases)
	}
	if c.D < 8 || c.H < 8 || c.W < 8 {
		return fmt.Errorf("msd: volume %dx%dx%d too small (min 8 per axis)", c.D, c.H, c.W)
	}
	return nil
}

// GenerateCase builds one deterministic phantom case.
func GenerateCase(cfg Config, index int) *volume.Volume {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(index)*7919))
	name := fmt.Sprintf("BRATS_%03d", index+1)
	v := volume.NewVolume(name, len(Modalities), cfg.D, cfg.H, cfg.W)

	d, h, w := float64(cfg.D), float64(cfg.H), float64(cfg.W)
	// Brain: a large ellipsoid centred in the volume with mild jitter.
	bcz := d/2 + rng.NormFloat64()*d*0.02
	bcy := h/2 + rng.NormFloat64()*h*0.02
	bcx := w/2 + rng.NormFloat64()*w*0.02
	brz := d * (0.38 + 0.04*rng.Float64())
	bry := h * (0.40 + 0.04*rng.Float64())
	brx := w * (0.40 + 0.04*rng.Float64())

	// Tumour: nested ellipsoids (edema ⊃ non-enhancing ⊃ enhancing) placed
	// inside the brain at a random offset.
	theta := rng.Float64() * 2 * math.Pi
	tcz := bcz + (rng.Float64()*0.5)*brz*math.Sin(theta)
	tcy := bcy + (rng.Float64()*0.5)*bry*math.Cos(theta)
	tcx := bcx + (rng.Float64()*0.5)*brx*math.Sin(theta+1)
	edemaR := (0.18 + 0.10*rng.Float64()) * math.Min(d, math.Min(h, w))
	nonEnhR := edemaR * (0.55 + 0.15*rng.Float64())
	enhR := nonEnhR * (0.45 + 0.20*rng.Float64())

	// Per-modality tissue contrast. Rows: modality; columns: healthy brain,
	// edema, non-enhancing, enhancing. Chosen to mimic qualitative MRI
	// contrast (FLAIR lights up edema, T1gd lights up enhancing tumour).
	contrast := [4][4]float64{
		{0.55, 0.95, 0.75, 0.70}, // FLAIR
		{0.65, 0.50, 0.45, 0.55}, // T1w
		{0.60, 0.55, 0.50, 0.98}, // T1gd
		{0.60, 0.85, 0.80, 0.75}, // T2w
	}

	for z := 0; z < cfg.D; z++ {
		for y := 0; y < cfg.H; y++ {
			for x := 0; x < cfg.W; x++ {
				// Normalized distance to the brain ellipsoid boundary.
				dz := (float64(z) - bcz) / brz
				dy := (float64(y) - bcy) / bry
				dx := (float64(x) - bcx) / brx
				inBrain := dz*dz+dy*dy+dx*dx <= 1

				tz := float64(z) - tcz
				ty := float64(y) - tcy
				tx := float64(x) - tcx
				tr := math.Sqrt(tz*tz + ty*ty + tx*tx)

				tissue := -1 // outside the head
				if inBrain {
					tissue = 0
					switch {
					case tr <= enhR:
						tissue = 3
					case tr <= nonEnhR:
						tissue = 2
					case tr <= edemaR:
						tissue = 1
					}
				}

				idx := v.VoxelIndex(z, y, x)
				switch tissue {
				case 1:
					v.Labels[idx] = volume.LabelEdema
				case 2:
					v.Labels[idx] = volume.LabelNonEnhancingTumor
				case 3:
					v.Labels[idx] = volume.LabelEnhancingTumor
				default:
					v.Labels[idx] = volume.LabelBackground
				}

				for c := 0; c < 4; c++ {
					var base float64
					if tissue >= 0 {
						base = contrast[c][tissue]
					}
					noise := rng.NormFloat64() * 0.03
					v.SetIntensity(float32(base+noise), c, z, y, x)
				}
			}
		}
	}
	return v
}

// Dataset is an in-memory synthetic MSD dataset with the paper's
// 70/15/15 train/validation/test split.
type Dataset struct {
	Cfg   Config
	Cases []*volume.Volume
	Train []int
	Val   []int
	Test  []int
}

// Generate builds the full dataset in memory.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{Cfg: cfg}
	for i := 0; i < cfg.Cases; i++ {
		ds.Cases = append(ds.Cases, GenerateCase(cfg, i))
	}
	ds.Train, ds.Val, ds.Test = volume.Split(cfg.Cases)
	return ds, nil
}

// WriteNIfTI materializes the dataset in the MSD on-disk layout:
//
//	dir/imagesTr/BRATS_xxx.nii  (4-D: W,H,D,modalities)
//	dir/labelsTr/BRATS_xxx.nii  (3-D uint8)
func (ds *Dataset) WriteNIfTI(dir string) error {
	imgDir := filepath.Join(dir, "imagesTr")
	lblDir := filepath.Join(dir, "labelsTr")
	for _, d := range []string{imgDir, lblDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("msd: %w", err)
		}
	}
	for _, v := range ds.Cases {
		if err := writeCase(imgDir, lblDir, v); err != nil {
			return err
		}
	}
	return nil
}

func writeCase(imgDir, lblDir string, v *volume.Volume) error {
	// NIfTI stores the first axis fastest: data index = x + W·(y + H·(z + D·c)).
	n := v.D * v.H * v.W
	img := &nifti.Image{
		Dims:     []int{v.W, v.H, v.D, v.Channels},
		Datatype: nifti.DTFloat32,
		PixDim:   [3]float32{1, 1, 1},
		Data:     make([]float32, n*v.Channels),
	}
	for c := 0; c < v.Channels; c++ {
		for z := 0; z < v.D; z++ {
			for y := 0; y < v.H; y++ {
				for x := 0; x < v.W; x++ {
					img.Data[x+v.W*(y+v.H*(z+v.D*c))] = v.Intensity(c, z, y, x)
				}
			}
		}
	}
	lbl := &nifti.Image{
		Dims:     []int{v.W, v.H, v.D},
		Datatype: nifti.DTUint8,
		PixDim:   [3]float32{1, 1, 1},
		Data:     make([]float32, n),
	}
	for z := 0; z < v.D; z++ {
		for y := 0; y < v.H; y++ {
			for x := 0; x < v.W; x++ {
				lbl.Data[x+v.W*(y+v.H*z)] = float32(v.Labels[v.VoxelIndex(z, y, x)])
			}
		}
	}
	if err := writeImageFile(filepath.Join(imgDir, v.Name+".nii"), img); err != nil {
		return err
	}
	return writeImageFile(filepath.Join(lblDir, v.Name+".nii"), lbl)
}

func writeImageFile(path string, img *nifti.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("msd: %w", err)
	}
	defer f.Close()
	if err := nifti.Encode(f, img); err != nil {
		return fmt.Errorf("msd: encoding %s: %w", path, err)
	}
	return f.Close()
}

// LoadCase reads one case back from the MSD on-disk layout.
func LoadCase(dir, name string) (*volume.Volume, error) {
	img, err := readImageFile(filepath.Join(dir, "imagesTr", name+".nii"))
	if err != nil {
		return nil, err
	}
	lbl, err := readImageFile(filepath.Join(dir, "labelsTr", name+".nii"))
	if err != nil {
		return nil, err
	}
	if len(img.Dims) != 4 {
		return nil, fmt.Errorf("msd: image %s is not 4-D: %v", name, img.Dims)
	}
	w, h, d, c := img.Dims[0], img.Dims[1], img.Dims[2], img.Dims[3]
	if len(lbl.Dims) != 3 || lbl.Dims[0] != w || lbl.Dims[1] != h || lbl.Dims[2] != d {
		return nil, fmt.Errorf("msd: label dims %v do not match image %v", lbl.Dims, img.Dims)
	}
	v := volume.NewVolume(name, c, d, h, w)
	for ci := 0; ci < c; ci++ {
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v.SetIntensity(img.Data[x+w*(y+h*(z+d*ci))], ci, z, y, x)
				}
			}
		}
	}
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v.Labels[v.VoxelIndex(z, y, x)] = uint8(lbl.Data[x+w*(y+h*z)])
			}
		}
	}
	return v, nil
}

// ListCases returns the case names present under dir, sorted.
func ListCases(dir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "imagesTr"))
	if err != nil {
		return nil, fmt.Errorf("msd: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if filepath.Ext(n) == ".nii" {
			names = append(names, n[:len(n)-len(".nii")])
		}
	}
	sort.Strings(names)
	return names, nil
}

func readImageFile(path string) (*nifti.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("msd: %w", err)
	}
	defer f.Close()
	img, err := nifti.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("msd: decoding %s: %w", path, err)
	}
	return img, nil
}
