package tensor

import "testing"

// call takes sizes from w in turn, writes each, and releases them all, as
// one outermost call of an owner does.
func call(w *Workspace, sizes ...int) {
	m := w.Mark()
	for _, n := range sizes {
		s := w.Take(n)
		if len(s) != n || cap(s) != n {
			panic("Take returned the wrong length or a capacity past it")
		}
		for i := range s {
			s[i] = float32(i)
		}
	}
	w.Release(m)
}

// TestWorkspaceGrowsToHighWater: a call that outgrows the backing lays it
// out again at its high-water mark — the largest total taken at once — when
// the outermost call releases, not at the sum or at the last call's size.
func TestWorkspaceGrowsToHighWater(t *testing.T) {
	var w Workspace
	if w.Take(0) != nil {
		t.Fatal("Take(0) returned floats")
	}
	call(&w, 100, 28)
	if len(w.buf) != 128 {
		t.Fatalf("backing %d floats after a 128-float call, want 128", len(w.buf))
	}
	// Nested calls: the peak is the deepest stack, 128 + 64.
	outer := w.Mark()
	w.Take(128)
	call(&w, 64)
	call(&w, 32)
	w.Release(outer)
	if len(w.buf) != 192 {
		t.Fatalf("backing %d floats, want the 192-float high-water mark", len(w.buf))
	}
	call(&w, 16)
	if len(w.buf) != 192 {
		t.Fatalf("a smaller call shrank the backing to %d", len(w.buf))
	}
}

// TestScratchReusesBuffers: after one warm-up call, the same calls take
// every float from the backing — nothing is allocated and the takes the
// counters see hit no allocator.
func TestScratchReusesBuffers(t *testing.T) {
	var w Workspace
	step := func() { call(&w, 4096, 2048, 100) }
	step()
	before := ScratchStatsSnapshot()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state call allocates %v times, want 0", allocs)
	}
	after := ScratchStatsSnapshot()
	if after.Allocs != before.Allocs {
		t.Fatalf("steady-state calls counted %d allocations", after.Allocs-before.Allocs)
	}
	if after.Gets-before.Gets != 21*3 {
		t.Fatalf("counted %d takes, want %d", after.Gets-before.Gets, 21*3)
	}
}

// TestWorkspaceCountsOverflow: each take past the backing is one counted
// allocation, and the bytes metric grows by the overflow and the new
// backing.
func TestWorkspaceCountsOverflow(t *testing.T) {
	var w Workspace
	call(&w, 8)
	before, bytes := ScratchStatsSnapshot(), workspaceAllocBytes.Value()
	call(&w, 8, 4, 4) // the first fits, the other two overflow
	after := ScratchStatsSnapshot()
	if got := after.Allocs - before.Allocs; got != 2 {
		t.Fatalf("counted %d overflow allocations, want 2", got)
	}
	if got := workspaceAllocBytes.Value() - bytes; got != (4+4+16)*4 {
		t.Fatalf("counted %d bytes, want %d (overflow plus the 16-float backing)", got, (4+4+16)*4)
	}
}

// TestWorkspaceReleaseRestoresMark: Release returns the position to its
// mark, so the next take reuses the floats given back.
func TestWorkspaceReleaseRestoresMark(t *testing.T) {
	var w Workspace
	call(&w, 64)
	m0 := w.Mark()
	a := w.Take(16)
	m1 := w.Mark()
	b := w.Take(16)
	w.Release(m1)
	if w.Mark() != m1 {
		t.Fatal("Release did not restore the inner mark")
	}
	if c := w.Take(16); &c[0] != &b[0] {
		t.Fatal("a take after Release did not reuse the floats given back")
	}
	w.Release(m0)
	if w.Mark() != (Mark{}) {
		t.Fatal("releasing the outermost mark left floats taken")
	}
	if d := w.Take(16); &d[0] != &a[0] {
		t.Fatal("the outermost release did not rewind to the start")
	}
}
