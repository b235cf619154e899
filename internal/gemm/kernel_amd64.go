//go:build amd64

package gemm

// useAsm reports whether the AVX2 microkernel is live: the CPU implements
// AVX2 and the OS saves the YMM state. Decided once, at package init.
var useAsm = hasAVX2()

// AVX2 reports whether this package's AVX2 paths are live, for packages
// that carry AVX2 assembly of their own and want the same once-at-init
// decision.
func AVX2() bool { return useAsm }

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS context-switches XMM and YMM registers.
	if eax, _ := xgetbv0(); eax&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0. Only valid once CPUID reports
// OSXSAVE.
func xgetbv0() (eax, edx uint32)

// runTiles runs a tileRun: in one call of the assembly where it is live —
// which macroKernel makes once for all the full tiles of a block, and once
// per ragged tile — and through tilesGo otherwise.
func runTiles(t *tileRun) {
	if useAsm {
		tilesAVX2(t)
		return
	}
	tilesGo(t)
}

// copyRows packs the leading K steps of one full panel of a row-major B,
// dst[p·nr + jj] = src[p·ldb + jj], and returns how many it packed: all pw
// with AVX2, none without.
func copyRows(dst, src []float32, ldb, pw int) int {
	if !useAsm {
		return 0
	}
	copyPanelAVX2(dst[:pw*nr], src[:(pw-1)*ldb+nr], ldb, pw)
	return pw
}

// transposeRows packs the leading K steps of one full panel of a transposed
// B, dst[p·nr + jj] = src[jj·ldb + p], and returns how many it packed: the
// whole 8-step blocks of pw with AVX2, none without.
func transposeRows(dst, src []float32, ldb, pw int) int {
	if !useAsm {
		return 0
	}
	done := pw &^ 7
	transposeAVX2(dst[:done*nr], src[:(nr-1)*ldb+done], ldb, done/8)
	return done
}

// The assembly routines index their slices by the shape arguments alone and
// never look at a length: the wrappers above, and macroKernel for a
// tileRun's A and dense C, slice each operand to the extent named here
// first, which is the bounds check. The offsets a B operand is read through
// are checked once per GemmBatch instead (Operand.check): a packed panel is
// read through panelRows, which stays inside it, and a gathered source is
// held to the extremes of its offset tables, which NewGathered computed; a
// scattered C likewise (Target.check).

// tilesAVX2 is tilesGo in AVX2 assembly: every tile of the run is kernelGo's
// element-wise SIMD — the same multiply-round-add-round recurrence and the
// same store — so it produces the same bits, and a call costs one Go call
// for the whole block. It reads each A panel's pw·mr floats and
// b[rows[p]+quad :][:4] for every K step p and quad of each B panel, and
// touches exactly the tiles' elements of c. st's row pointers each address
// mr values.
//
//go:noescape
func tilesAVX2(t *tileRun)

// transposeAVX2 moves `blocks` 8-step blocks of K as 8×8 in-register
// transposes: dst[p·nr + jj] = src[jj·ldb + p] for p < 8·blocks, jj < nr.
//
//go:noescape
func transposeAVX2(dst, src []float32, ldb, blocks int)

// copyPanelAVX2 is dst[p·nr + jj] = src[p·ldb + jj] for p < pw, jj < nr.
//
//go:noescape
func copyPanelAVX2(dst, src []float32, ldb, pw int)
