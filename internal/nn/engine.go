package nn

import (
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// ConvEngine selects the compute backend of the convolution layers. It is a
// thin view over the conv-backend registry (see backend.go): every
// registered backend has an engine id, ParseConvEngine resolves registry
// names, and arbitrary backends linked into the binary become selectable
// without any change here.
//
// The built-in backends trade determinism granularity for throughput:
//
//   - EngineDirect runs the original 7-deep loop kernels. Every float is
//     accumulated in exactly the serial reference's order, so outputs are
//     bit-for-bit identical to the serial kernels at any worker budget.
//   - EngineGEMM lowers each convolution to blocked, register-tiled
//     matrix multiplies (internal/gemm) against a patch matrix it never
//     builds — an order of magnitude faster, and still bit-for-bit
//     independent of the worker budget, but the GEMM reassociates the
//     K-dimension sum, so results match the direct reference only
//     within a small tolerance (documented bound, asserted
//     by TestConvEngineParity: ≤ 64 ULP on forward outputs and ≤ 1024 ULP
//     on gradient reductions, with a 1e-5 absolute floor for
//     catastrophic-cancellation elements near zero).
//
// Importing repro/internal/nn/generated additionally registers "generated":
// fixed-bound unrolled forward kernels emitted by cmd/kernelgen for the
// paper U-Net's layer shapes, with per-shape fallback to gemm elsewhere.
//
// Every backend is deterministic run-to-run; mirrored replicas stay bitwise
// synchronized under any of them, as long as all replicas use the same
// engine.
type ConvEngine int32

// EngineAuto resolves to the process-wide default: SetDefaultConvEngine if
// called, else the REPRO_CONV_ENGINE environment variable, else EngineGEMM.
const EngineAuto ConvEngine = 0

// EnvConvEngine is the environment variable consulted for the default
// convolution engine. It is resolved lazily on first use — after every
// package init has run, so backends that self-register from imported
// packages (nn/generated) are selectable — and an unknown value logs a
// warning once and falls back to gemm instead of being silently ignored.
const EnvConvEngine = "REPRO_CONV_ENGINE"

// String renders the engine's registry name ("auto" for EngineAuto).
func (e ConvEngine) String() string {
	if e == EngineAuto {
		return "auto"
	}
	if b := backendOf(e); b != nil {
		return b.Name()
	}
	return fmt.Sprintf("ConvEngine(%d)", int32(e))
}

// ParseConvEngine maps a registered backend name (or "auto"/"") to its
// engine id.
func ParseConvEngine(s string) (ConvEngine, error) {
	if s == "" || s == "auto" {
		return EngineAuto, nil
	}
	if e, ok := LookupConvEngine(s); ok {
		return e, nil
	}
	return EngineAuto, fmt.Errorf("nn: unknown conv engine %q (want %s or auto)",
		s, strings.Join(ConvEngines(), ", "))
}

// defaultEngine is the process-wide default set by SetDefaultConvEngine;
// EngineAuto (the startup value) means "follow the environment default".
var defaultEngine atomic.Int32

// envDefault resolves REPRO_CONV_ENGINE once, on first use — the single
// resolution path for the environment default, shared by DefaultConvEngine
// and SetDefaultConvEngine(EngineAuto).
var (
	envDefaultOnce   sync.Once
	envDefaultEngine ConvEngine
)

func envDefault() ConvEngine {
	envDefaultOnce.Do(func() {
		envDefaultEngine = EngineGEMM
		s := os.Getenv(EnvConvEngine)
		if s == "" || s == "auto" {
			return
		}
		e, err := ParseConvEngine(s)
		if err != nil {
			log.Printf("nn: ignoring %s=%q: %v", EnvConvEngine, s, err)
			return
		}
		envDefaultEngine = e
	})
	return envDefaultEngine
}

// DefaultConvEngine returns the process-wide default engine.
func DefaultConvEngine() ConvEngine {
	if e := ConvEngine(defaultEngine.Load()); e != EngineAuto {
		return e
	}
	return envDefault()
}

// SetDefaultConvEngine sets the process-wide default; EngineAuto restores
// the REPRO_CONV_ENGINE / gemm startup default. It returns the engine now
// in effect.
func SetDefaultConvEngine(e ConvEngine) ConvEngine {
	defaultEngine.Store(int32(e))
	return DefaultConvEngine()
}

// ResolveConvEngine maps a per-layer engine choice to an effective engine:
// EngineAuto means the process default.
func ResolveConvEngine(e ConvEngine) ConvEngine {
	if e == EngineAuto {
		return DefaultConvEngine()
	}
	return e
}

// ConvEngineSetter is implemented by layers (and layer containers) whose
// convolution kernels can switch between the registered compute backends.
type ConvEngineSetter interface {
	SetConvEngine(ConvEngine)
}

// engineChoice is embedded by the convolution layers to carry the per-layer
// engine override; the zero value (EngineAuto) tracks the process default.
type engineChoice struct {
	engine ConvEngine
}

// SetConvEngine sets the layer's engine; EngineAuto restores the default.
func (c *engineChoice) SetConvEngine(e ConvEngine) { c.engine = e }
