// Package ckpt persists and restores models and training sessions through
// one writer, Save, and one reader, Load. A checkpoint holds the model's
// parameter tensors, its auxiliary state (batch-norm running statistics)
// and, for a session, opaque float64 state slices (optimizer moments,
// counters, metric history); every float64 is stored bit-exactly as a
// uint64 bit pattern. Ray.Tune-style trial schedulers and long campaigns
// rely on checkpoints to pause, resume and recover experiments; the on-disk
// payload reuses the repository's TFRecord feature codec so checkpoints
// share the dataset tooling. A bare model is a checkpoint with no session
// state, and a session checkpoint loads as a model by ignoring the state
// Load returns.
package ckpt

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/nn"
	"repro/internal/record"
)

// Model is anything checkpointable through its named parameters. Models
// that also implement nn.AuxStater (the U-Net does, for its batch-norm
// running statistics) get that state saved and restored too, so a restored
// model's Infer is bit-for-bit the original's.
type Model interface {
	Params() []*nn.Param
}

func auxOf(m Model) map[string][]float64 {
	if a, ok := m.(nn.AuxStater); ok {
		return a.AuxState()
	}
	return nil
}

// Save writes m — its parameters in order with their shapes, and its
// auxiliary state — and the session state to w. A nil state is a bare
// model checkpoint.
func Save(w io.Writer, m Model, state map[string][]float64) error {
	f := record.NewFeatures()
	names := make([]byte, 0, 256)
	for i, p := range m.Params() {
		if p.Name == "" {
			return fmt.Errorf("ckpt: parameter %d has no name", i)
		}
		names = append(append(names, p.Name...), 0)
		shape := p.Value.Shape()
		shape64 := make([]int64, len(shape))
		for j, d := range shape {
			shape64[j] = int64(d)
		}
		f.AddInts("shape:"+p.Name, shape64)
		f.AddFloats("param:"+p.Name, p.Value.Data())
	}
	f.AddBytes("names", names)
	addBits(f, "aux:", auxOf(m))
	addBits(f, "opt:", state)
	return record.NewWriter(w).Write(f.Marshal())
}

// Load restores m from the checkpoint in r and returns its session state
// (empty for a bare model checkpoint). The checkpoint must hold m's
// architecture: the same parameter names in the same order, each with m's
// shape, and every auxiliary-state entry m has. On error m is untouched.
func Load(r io.Reader, m Model) (map[string][]float64, error) {
	payload, err := record.NewReader(r).Next()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	f, err := record.Unmarshal(payload)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	params := m.Params()
	// Save ends every name with a NUL, so both lists end in "".
	want := make([]string, len(params)+1)
	for i, p := range params {
		want[i] = p.Name
	}
	if got := strings.Split(string(f.Bytes["names"]), "\x00"); !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return nil, fmt.Errorf("ckpt: checkpoint is of another architecture: at parameter %d it has %s where the model has %s",
			i, nameAt(got, i), nameAt(want, i))
	}
	vals := make([][]float32, len(params))
	for i, p := range params {
		shape64, ok := f.Ints["shape:"+p.Name]
		if !ok {
			return nil, fmt.Errorf("ckpt: checkpoint is missing the shape record of parameter %q", p.Name)
		}
		shape := p.Value.Shape()
		if len(shape64) != len(shape) {
			return nil, fmt.Errorf("ckpt: parameter %q: model rank %d (shape %v), checkpoint rank %d (shape %v)",
				p.Name, len(shape), shape, len(shape64), shape64)
		}
		for j := range shape {
			if shape64[j] != int64(shape[j]) {
				return nil, fmt.Errorf("ckpt: parameter %q: model shape %v, checkpoint shape %v (dimension %d: %d vs %d)",
					p.Name, shape, shape64, j, shape[j], shape64[j])
			}
		}
		if vals[i] = f.Floats["param:"+p.Name]; len(vals[i]) != p.Value.Size() {
			return nil, fmt.Errorf("ckpt: parameter %q: checkpoint holds %d values, model needs %d", p.Name, len(vals[i]), p.Value.Size())
		}
	}
	aux := auxOf(m)
	for name, dst := range aux {
		bits, ok := f.Ints["aux:"+name]
		if !ok {
			return nil, fmt.Errorf("ckpt: checkpoint has no auxiliary state %q", name)
		}
		if len(bits) != len(dst) {
			return nil, fmt.Errorf("ckpt: auxiliary state %q: checkpoint holds %d values, model needs %d", name, len(bits), len(dst))
		}
	}
	for i, p := range params {
		copy(p.Value.Data(), vals[i])
	}
	for name, dst := range aux {
		for i, b := range f.Ints["aux:"+name] {
			dst[i] = math.Float64frombits(uint64(b))
		}
	}
	return readBits(f, "opt:"), nil
}

// nameAt quotes names[i]; the empty name that closes a list reads as none.
func nameAt(names []string, i int) string {
	if i >= len(names) || names[i] == "" {
		return "no parameter"
	}
	return strconv.Quote(names[i])
}

// addBits stores each float64 slice of m under prefix+key as uint64 bit
// patterns in the codec's int64 feature, keys sorted for a deterministic
// payload.
func addBits(f *record.Features, prefix string, m map[string][]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		bits := make([]int64, len(m[k]))
		for i, v := range m[k] {
			bits[i] = int64(math.Float64bits(v))
		}
		f.AddInts(prefix+k, bits)
	}
}

// readBits inverts addBits: every int64 feature under prefix, keyed by the
// rest of its name.
func readBits(f *record.Features, prefix string) map[string][]float64 {
	out := map[string][]float64{}
	for key, bits := range f.Ints {
		if name, ok := strings.CutPrefix(key, prefix); ok {
			vals := make([]float64, len(bits))
			for i, b := range bits {
				vals[i] = math.Float64frombits(uint64(b))
			}
			out[name] = vals
		}
	}
	return out
}

// SaveFile writes a checkpoint to path through WriteFileAtomic.
func SaveFile(path string, m Model, state map[string][]float64) error {
	return WriteFileAtomic(path, func(f io.Writer) error { return Save(f, m, state) })
}

// LoadFile restores m from the checkpoint at path and returns its session
// state.
func LoadFile(path string, m Model) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return Load(f, m)
}

// WriteFileAtomic replaces the file at path with what write produces, so
// that a reader, or a restart after a crash, finds either the old file or
// the complete new one. write fills a temp file beside path; the temp file
// is synced, renamed over path, and the directory synced after the rename.
// Every error removes the temp file, and one before the rename leaves path
// as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}
