package nn

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/tensor"
)

// Conv-backend registry.
//
// A Backend implements the four convolution compute paths of the network —
// Conv3D forward, backward-weights, backward-input, and the transposed
// convolution — against the layer's tensors. Backends register themselves
// under a name (Register); the ConvEngine type, ParseConvEngine and the
// REPRO_CONV_ENGINE environment variable are thin views over the registry,
// so new backends (shape-specialized generated kernels, int8 inference, cgo
// BLAS) slot in without touching this package's dispatch code.
//
// Dispatch is per layer *shape*: every call resolves the layer's ConvSpec —
// (kernel, stride, channels) — through ResolveBackend, which walks the
// guaranteed fallback chain
//
//	requested backend → gemm → direct
//
// skipping any backend that does not Supports the spec. A shape-specialized
// backend therefore accelerates exactly the layer shapes it was built for
// and degrades gracefully — never incorrectly — everywhere else. The two
// built-in backends (gemm, direct) support every shape, so resolution always
// succeeds.
//
// Determinism contract: every backend must be bit-for-bit independent of the
// worker budget (single-owner output partitions with a fixed per-element
// accumulation order) and must reproduce the serial direct reference within
// the documented ULP bounds (TestConvEngineParity runs every registered
// backend). The direct backend is additionally bit-for-bit equal to the
// serial reference.

// ConvSpec identifies a convolution layer shape — the per-shape dispatch key
// of the backend registry.
type ConvSpec struct {
	// Transposed distinguishes ConvTranspose3D from Conv3D.
	Transposed bool
	// Kernel is the cubic kernel edge.
	Kernel int
	// Stride is 1 for Conv3D (stride-1 "same" convolutions) and equals
	// Kernel for ConvTranspose3D (non-overlapping windows).
	Stride int
	// InC and OutC are the channel counts.
	InC, OutC int
}

// String renders the spec as e.g. "conv k3 s1 8->16" / "convT k2 s2 16->16".
func (s ConvSpec) String() string {
	op := "conv"
	if s.Transposed {
		op = "convT"
	}
	return fmt.Sprintf("%s k%d s%d %d->%d", op, s.Kernel, s.Stride, s.InC, s.OutC)
}

// Spec returns the layer's dispatch key.
func (c *Conv3D) Spec() ConvSpec {
	return ConvSpec{Kernel: c.Kernel, Stride: 1, InC: c.InChannels, OutC: c.OutChannels}
}

// Spec returns the layer's dispatch key.
func (c *ConvTranspose3D) Spec() ConvSpec {
	return ConvSpec{Transposed: true, Kernel: c.Kernel, Stride: c.Kernel, InC: c.InChannels, OutC: c.OutChannels}
}

// Backend implements the four convolution compute paths. Methods receive the
// owning layer (for parameters, worker budget and per-layer caches) plus
// caller-allocated output tensors, and must uphold the registry's
// determinism contract (see the package comment above).
type Backend interface {
	// Name is the registry name ("gemm", "direct", ...).
	Name() string

	// Supports reports whether the backend can compute the given layer
	// shape. ResolveBackend never dispatches an unsupported spec to the
	// backend; shapes outside the supported set fall back down the chain.
	Supports(spec ConvSpec) bool

	// ConvForward computes the forward convolution of x into out (every
	// element is written) and retains nothing: training forwards, evaluation
	// forwards and Infer all come through here, and the backward passes
	// work from the input the layer itself kept.
	ConvForward(c *Conv3D, x, out *tensor.Tensor)

	// ConvBackwardWeights accumulates the kernel gradient of the cached
	// forward input onto c.W.Grad. (The bias gradient is engine-invariant
	// and accumulated by the layer itself before this call.)
	ConvBackwardWeights(c *Conv3D, gradOut *tensor.Tensor)

	// ConvBackwardInput writes dL/d(input) over every element of gradIn,
	// whose contents on arrival are undefined.
	ConvBackwardInput(c *Conv3D, gradOut, gradIn *tensor.Tensor)

	// TransposeForward computes the transposed-convolution forward of x
	// into out (every element is written, bias included).
	TransposeForward(t *ConvTranspose3D, x, out *tensor.Tensor)

	// TransposeBackward accumulates the kernel gradient onto t.W.Grad and
	// writes dL/d(input) over every element of gradIn, whose contents on
	// arrival are undefined. (Bias as in ConvBackwardWeights.)
	TransposeBackward(t *ConvTranspose3D, gradOut, gradIn *tensor.Tensor)
}

// registry is the process-wide backend table. Engine ids are 1-based indices
// into the slices (0 is EngineAuto); gemm and direct register first, so
// their historical ids (1 and 2) — and any serialized config carrying them —
// stay stable.
var registry = struct {
	sync.RWMutex
	names    []string
	backends []Backend
	byName   map[string]ConvEngine
	warned   map[ConvEngine]bool
}{
	byName: map[string]ConvEngine{},
	warned: map[ConvEngine]bool{},
}

var (
	// EngineGEMM is the blocked-GEMM backend (the default).
	EngineGEMM = Register("gemm", gemmBackend{})
	// EngineDirect is the direct-loop golden reference backend.
	EngineDirect = Register("direct", directBackend{})
)

// Register adds a backend under a unique name and returns its engine id.
// Call it from package initialization (the generated backend self-registers
// via an init in internal/nn/generated); the name must not be empty, "auto"
// or already taken, and should match the backend's Name().
func Register(name string, b Backend) ConvEngine {
	if name == "" || name == "auto" {
		panic(fmt.Sprintf("nn: invalid backend name %q", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("nn: conv backend %q registered twice", name))
	}
	registry.names = append(registry.names, name)
	registry.backends = append(registry.backends, b)
	e := ConvEngine(len(registry.backends))
	registry.byName[name] = e
	return e
}

// ConvEngines lists the registered backend names in registration order.
// Command-line -engine flags enumerate it for their help text, so backends
// linked into the binary appear without any flag-plumbing edits.
func ConvEngines() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.names...)
}

// LookupConvEngine resolves a registered backend name to its engine id.
func LookupConvEngine(name string) (ConvEngine, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[name]
	return e, ok
}

// BackendByName returns the registered backend itself — the hook a
// delegating backend uses to reach the generic implementations (the
// generated backend runs its specialized forward kernels and delegates the
// backward paths to "gemm").
func BackendByName(name string) (Backend, bool) {
	registry.RLock()
	defer registry.RUnlock()
	e, ok := registry.byName[name]
	if !ok {
		return nil, false
	}
	return registry.backends[e-1], true
}

// backendOf returns the backend behind an engine id, or nil for EngineAuto
// and ids no backend in this binary owns (e.g. a config serialized by a
// binary that had more backends linked in).
func backendOf(e ConvEngine) Backend {
	registry.RLock()
	defer registry.RUnlock()
	if e <= 0 || int(e) > len(registry.backends) {
		return nil
	}
	return registry.backends[e-1]
}

// warnUnknownEngine logs once per unknown engine id; resolution then falls
// back down the chain instead of failing. The log call happens outside the
// registry lock: formatting a ConvEngine re-enters the registry through
// String(), and sync.RWMutex is not reentrant.
func warnUnknownEngine(e ConvEngine) {
	registry.Lock()
	seen := registry.warned[e]
	registry.warned[e] = true
	registry.Unlock()
	if !seen {
		log.Printf("nn: no conv backend registered for engine id %d; falling back to %s", int32(e), EngineGEMM)
	}
}

// ResolveBackend resolves an engine choice and a layer shape to the backend
// that will compute it: the requested engine (EngineAuto means the process
// default) if it supports the spec, otherwise the fallback chain gemm →
// direct. The chain is total — direct supports every shape — so the result
// is never nil.
func ResolveBackend(e ConvEngine, spec ConvSpec) Backend {
	e = ResolveConvEngine(e)
	b := backendOf(e)
	if b == nil {
		warnUnknownEngine(e)
	} else if b.Supports(spec) {
		return b
	}
	if g := backendOf(EngineGEMM); g.Supports(spec) {
		return g
	}
	return backendOf(EngineDirect)
}
