// Package ckpt persists and restores model and training-session state:
// parameter tensors, auxiliary state (batch-norm running statistics) and —
// for sessions — opaque float64 state slices (optimizer moments, counters,
// metric history) stored bit-exactly as uint64 bit patterns, plus scalar
// metadata. Ray.Tune-style trial schedulers and long campaigns rely on
// checkpoints to pause, resume and recover experiments; the on-disk payload
// reuses the repository's TFRecord feature codec so checkpoints share the
// dataset tooling. A session checkpoint is a superset of a model
// checkpoint: LoadModel reads one by skipping the session namespace.
package ckpt

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/nn"
	"repro/internal/record"
)

// Save serializes the parameters and metadata to w. Parameter order and
// shapes are recorded so Load can verify compatibility. Models with
// auxiliary state (batch-norm running statistics) should use SaveModel,
// which captures it.
func Save(w io.Writer, params []*nn.Param, meta map[string]float64) error {
	return saveModel(w, params, nil, meta)
}

func saveModel(w io.Writer, params []*nn.Param, aux map[string][]float64, meta map[string]float64) error {
	return savePayload(w, params, aux, nil, meta)
}

func savePayload(w io.Writer, params []*nn.Param, aux, opt map[string][]float64, meta map[string]float64) error {
	f := record.NewFeatures()
	names := make([]byte, 0, 256)
	for i, p := range params {
		if p.Name == "" {
			return fmt.Errorf("ckpt: parameter %d has no name", i)
		}
		names = append(names, []byte(p.Name)...)
		names = append(names, 0)
		shape := p.Value.Shape()
		shape64 := make([]int64, len(shape))
		for j, d := range shape {
			shape64[j] = int64(d)
		}
		f.AddInts("shape:"+p.Name, shape64)
		f.AddFloats("param:"+p.Name, p.Value.Data())
	}
	f.AddBytes("names", names)
	// Auxiliary float64 state, stored bit-exactly as uint64 bit patterns in
	// the codec's int64 feature; keys sorted for a deterministic payload.
	addBits := func(prefix string, m map[string][]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vals := m[k]
			bits := make([]int64, len(vals))
			for i, v := range vals {
				bits[i] = int64(math.Float64bits(v))
			}
			f.AddInts(prefix+k, bits)
		}
	}
	addBits("aux:", aux)
	// Optimizer (and session) state shares the bit-pattern encoding under
	// its own namespace, so model-only loaders skip it transparently.
	addBits("opt:", opt)
	metaKeys := make([]string, 0, len(meta))
	metaVals := make([]float32, 0, len(meta))
	for k, v := range meta {
		metaKeys = append(metaKeys, k)
		metaVals = append(metaVals, float32(v))
	}
	// Deterministic metadata order.
	for i := 0; i < len(metaKeys); i++ {
		for j := i + 1; j < len(metaKeys); j++ {
			if metaKeys[j] < metaKeys[i] {
				metaKeys[i], metaKeys[j] = metaKeys[j], metaKeys[i]
				metaVals[i], metaVals[j] = metaVals[j], metaVals[i]
			}
		}
	}
	metaNames := make([]byte, 0, 64)
	for _, k := range metaKeys {
		metaNames = append(metaNames, []byte(k)...)
		metaNames = append(metaNames, 0)
	}
	f.AddBytes("meta-names", metaNames)
	f.AddFloats("meta-values", metaVals)

	return record.NewWriter(w).Write(f.Marshal())
}

// Load restores parameter values from r into params (matched by name, with
// shape verification) and returns the stored metadata. Models with
// auxiliary state should use LoadModel, which restores it.
func Load(r io.Reader, params []*nn.Param) (map[string]float64, error) {
	return loadModel(r, params, nil)
}

func loadModel(r io.Reader, params []*nn.Param, aux map[string][]float64) (map[string]float64, error) {
	meta, _, err := loadPayload(r, params, aux, false)
	return meta, err
}

func loadPayload(r io.Reader, params []*nn.Param, aux map[string][]float64, wantOpt bool) (map[string]float64, map[string][]float64, error) {
	payload, err := record.NewReader(r).Next()
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	f, err := record.Unmarshal(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	for _, p := range params {
		vals, ok := f.Floats["param:"+p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("ckpt: checkpoint has no parameter %q (model expects shape %v)", p.Name, p.Value.Shape())
		}
		shape64, ok := f.Ints["shape:"+p.Name]
		if !ok {
			return nil, nil, fmt.Errorf("ckpt: checkpoint is missing the shape record of parameter %q", p.Name)
		}
		shape := p.Value.Shape()
		if len(shape64) != len(shape) {
			return nil, nil, fmt.Errorf("ckpt: parameter %q: model rank %d (shape %v), checkpoint rank %d (shape %v)",
				p.Name, len(shape), shape, len(shape64), shape64)
		}
		for i := range shape {
			if int(shape64[i]) != shape[i] {
				return nil, nil, fmt.Errorf("ckpt: parameter %q: model shape %v, checkpoint shape %v (dimension %d: %d vs %d)",
					p.Name, shape, shape64, i, shape[i], shape64[i])
			}
		}
		if len(vals) != p.Value.Size() {
			return nil, nil, fmt.Errorf("ckpt: parameter %q: checkpoint holds %d values, model needs %d", p.Name, len(vals), p.Value.Size())
		}
		copy(p.Value.Data(), vals)
	}

	if len(aux) > 0 {
		present := 0
		for name := range aux {
			if _, ok := f.Ints["aux:"+name]; ok {
				present++
			}
		}
		// Zero aux entries means a params-only checkpoint (plain Save):
		// leave the model's auxiliary state untouched. A partial set is a
		// mismatched checkpoint and rejected.
		if present > 0 {
			for name, dst := range aux {
				bits, ok := f.Ints["aux:"+name]
				if !ok {
					return nil, nil, fmt.Errorf("ckpt: checkpoint has no auxiliary state %q", name)
				}
				if len(bits) != len(dst) {
					return nil, nil, fmt.Errorf("ckpt: auxiliary state %q: checkpoint holds %d values, model needs %d",
						name, len(bits), len(dst))
				}
				for i, b := range bits {
					dst[i] = math.Float64frombits(uint64(b))
				}
			}
		}
	}

	var opt map[string][]float64
	if wantOpt {
		opt = map[string][]float64{}
		for key, bits := range f.Ints {
			name, ok := strings.CutPrefix(key, "opt:")
			if !ok {
				continue
			}
			vals := make([]float64, len(bits))
			for i, b := range bits {
				vals[i] = math.Float64frombits(uint64(b))
			}
			opt[name] = vals
		}
	}

	meta := map[string]float64{}
	names := splitNames(f.Bytes["meta-names"])
	vals := f.Floats["meta-values"]
	if len(names) != len(vals) {
		return nil, nil, fmt.Errorf("ckpt: metadata mismatch: %d names, %d values", len(names), len(vals))
	}
	for i, k := range names {
		meta[k] = float64(vals[i])
	}
	return meta, opt, nil
}

func splitNames(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == 0 {
			out = append(out, string(b[start:i]))
			start = i + 1
		}
	}
	return out
}

// Model is anything checkpointable through its named parameters. Models
// that also implement nn.AuxStater (the U-Net does, for its batch-norm
// running statistics) get that state saved and restored too, so a restored
// model's Infer is bit-for-bit the original's.
type Model interface {
	Params() []*nn.Param
}

// SaveModel serializes a model — parameters, auxiliary state and metadata —
// to w. Auxiliary float64 state is stored bit-exactly.
func SaveModel(w io.Writer, m Model, meta map[string]float64) error {
	return saveModel(w, m.Params(), auxOf(m), meta)
}

// LoadModel restores a model's parameters and auxiliary state from r and
// returns the stored metadata. Checkpoints written without auxiliary state
// (plain Save) load into stateful models with their auxiliary state left
// untouched; a checkpoint that has some but not all of the model's
// auxiliary entries is rejected.
func LoadModel(r io.Reader, m Model) (map[string]float64, error) {
	return loadModel(r, m.Params(), auxOf(m))
}

func auxOf(m Model) map[string][]float64 {
	if a, ok := m.(nn.AuxStater); ok {
		return a.AuxState()
	}
	return nil
}

// SaveSession serializes a full training-session checkpoint: the model
// (parameters + auxiliary state) plus opaque session state — optimizer
// moments, step counters, metric history — as float64 slices stored
// bit-exactly, and float32-precision metadata. LoadModel reads a session
// checkpoint too (the session namespace is simply skipped), so a finished
// session's checkpoint doubles as a deployable model artifact.
func SaveSession(w io.Writer, m Model, state map[string][]float64, meta map[string]float64) error {
	return savePayload(w, m.Params(), auxOf(m), state, meta)
}

// LoadSession restores a model from a session checkpoint and returns the
// session state and metadata written by SaveSession. Every float64 in the
// state round-trips bit-exactly.
func LoadSession(r io.Reader, m Model) (state map[string][]float64, meta map[string]float64, err error) {
	meta, state, err = loadPayload(r, m.Params(), auxOf(m), true)
	return state, meta, err
}

// SaveSessionFile writes a session checkpoint to path atomically.
func SaveSessionFile(path string, m Model, state map[string][]float64, meta map[string]float64) error {
	return writeFileAtomic(path, func(f io.Writer) error { return SaveSession(f, m, state, meta) })
}

// LoadSessionFile restores a session checkpoint from path.
func LoadSessionFile(path string, m Model) (map[string][]float64, map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return LoadSession(f, m)
}

// SaveModelFile writes a model checkpoint to path atomically.
func SaveModelFile(path string, m Model, meta map[string]float64) error {
	return writeFileAtomic(path, func(f io.Writer) error { return SaveModel(f, m, meta) })
}

// LoadModelFile restores a model checkpoint from path.
func LoadModelFile(path string, m Model) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return LoadModel(f, m)
}

// SaveFile writes a checkpoint to path atomically (via a temp file rename).
func SaveFile(path string, params []*nn.Param, meta map[string]float64) error {
	return writeFileAtomic(path, func(f io.Writer) error { return Save(f, params, meta) })
}

func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a checkpoint from path.
func LoadFile(path string, params []*nn.Param) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return Load(f, params)
}
