// Package tune is the experiment-distribution layer of the reproduction,
// standing in for Ray.Tune: hyper-parameter grids (the paper sweeps a grid,
// so there is no random search), trial lifecycle, early-stopping schedulers
// (FIFO, median stopping, ASHA) and a concurrent runner that places trials
// of a fixed GPU width on a cluster and divides the compute-worker budget
// among the running ones. Both of the paper's strategies are this runner:
// width 1 is experiment parallelism (one trial per GPU), width W on a W-GPU
// cluster is data parallelism (trials in series, each across every GPU).
//
// A runner with a CheckpointDir keeps a resumable campaign there: one
// campaign.json, holding every finished trial's terminal record and the
// stateful scheduler's state, rewritten by one atomic write per finished
// trial, and one trial-NNNN directory per trial for the trainable's own
// session checkpoints.
package tune

import (
	"fmt"
	"sort"
)

// Config is one hyper-parameter assignment.
type Config map[string]any

// Float returns the float64 value of key; integers are widened.
func (c Config) Float(key string) float64 {
	switch v := c[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	}
	panic(fmt.Sprintf("tune: config key %q is not numeric: %v", key, c[key]))
}

// Str returns the string value of key.
func (c Config) Str(key string) string {
	if s, ok := c[key].(string); ok {
		return s
	}
	panic(fmt.Sprintf("tune: config key %q is not a string: %v", key, c[key]))
}

// Has reports whether the key is present.
func (c Config) Has(key string) bool { _, ok := c[key]; return ok }

// clone returns a shallow copy.
func (c Config) clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Dimension is one axis of a grid search space: a name and the values it
// takes, in the order given.
type Dimension struct {
	Name   string
	Values []any
}

// Grid declares an axis with explicit values.
func Grid(name string, values ...any) Dimension {
	if len(values) == 0 {
		panic("tune: Grid needs at least one value")
	}
	return Dimension{Name: name, Values: values}
}

// Space is a product of dimensions.
type Space struct {
	dims []Dimension
}

// NewSpace builds a search space; dimension names must be unique.
func NewSpace(dims ...Dimension) (*Space, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("tune: empty search space")
	}
	seen := map[string]bool{}
	for _, d := range dims {
		if seen[d.Name] {
			return nil, fmt.Errorf("tune: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
	}
	return &Space{dims: dims}, nil
}

// GridConfigs enumerates the cross product of all axes ("this set of
// configurations becomes the cross-product of the different values for each
// option", §III-B.2): the first dimension varies slowest, values come in
// the order given, and a dimension without values empties the grid
// (TestGridConfigsOrder). The error is always nil.
func (s *Space) GridConfigs() ([]Config, error) {
	out := []Config{{}}
	for _, d := range s.dims {
		next := make([]Config, 0, len(out)*len(d.Values))
		for _, base := range out {
			for _, v := range d.Values {
				c := base.clone()
				c[d.Name] = v
				next = append(next, c)
			}
		}
		out = next
	}
	return out, nil
}

// Size returns the grid cardinality.
func (s *Space) Size() int {
	n := 1
	for _, d := range s.dims {
		n *= len(d.Values)
	}
	return n
}

// PaperSpace returns the benchmark's hyper-parameter search space: a
// 4 × 2 × 2 × 2 = 32-experiment cross product over learning rate, loss
// variant, optimizer and data augmentation.
func PaperSpace() *Space {
	s, err := NewSpace(
		Grid("lr", 1e-5, 3e-5, 1e-4, 3e-4),
		Grid("loss", "dice", "quadratic-dice"),
		Grid("optimizer", "adam", "sgd"),
		Grid("augment", "none", "flip"),
	)
	if err != nil {
		panic(err)
	}
	return s
}

// SortConfigs orders configurations deterministically by their rendered
// form, so distributed schedulers enumerate trials identically.
func SortConfigs(cfgs []Config) {
	sort.Slice(cfgs, func(i, j int) bool {
		return renderConfig(cfgs[i]) < renderConfig(cfgs[j])
	})
}

func renderConfig(c Config) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v;", k, c[k])
	}
	return s
}
