package tensor

import "testing"

// Views are zero-copy windows over a tensor's backing array; these tests
// pin the aliasing semantics (writes are visible both ways), the bounds
// panics, and the capacity clamp that stops a view from growing into the
// rest of its parent's backing.

func TestViewAliasesParent(t *testing.T) {
	p := New(2, 3, 4)
	for i := range p.Data() {
		p.Data()[i] = float32(i)
	}
	v := p.View(12, 3, 4) // second [3,4] plane
	if v.Size() != 12 || v.Dim(0) != 3 || v.Dim(1) != 4 {
		t.Fatalf("view shape %v", v.Shape())
	}
	if v.At(0, 0) != 12 || v.At(2, 3) != 23 {
		t.Fatalf("view window wrong: %v, %v", v.At(0, 0), v.At(2, 3))
	}
	// Writes through the view land in the parent, and vice versa.
	v.Set(-1, 1, 2)
	if p.At(1, 1, 2) != -1 {
		t.Fatal("write through view not visible in parent")
	}
	p.Set(-2, 1, 0, 0)
	if v.At(0, 0) != -2 {
		t.Fatal("write through parent not visible in view")
	}
}

func TestViewBounds(t *testing.T) {
	p := New(4, 4)
	for _, bad := range []struct {
		off   int
		shape []int
	}{
		{-1, []int{4}},
		{13, []int{4}},   // runs past the end
		{16, []int{1}},   // starts past the end
		{0, []int{4, 5}}, // larger than the backing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("View(%d, %v) did not panic", bad.off, bad.shape)
				}
			}()
			p.View(bad.off, bad.shape...)
		}()
	}
	// Exactly the whole backing is fine.
	if v := p.View(0, 16); v.Size() != 16 {
		t.Fatal("full-backing view failed")
	}
}

func TestViewCapacityClamped(t *testing.T) {
	p := New(10)
	v := p.View(2, 4)
	// The view's data slice must not be extendable into the parent's
	// remaining elements (three-index slicing caps it).
	if c := cap(v.Data()); c != 4 {
		t.Fatalf("view capacity %d leaks past its window, want 4", c)
	}
}

func TestSliceLeadingDim(t *testing.T) {
	p := New(4, 2, 3)
	for i := range p.Data() {
		p.Data()[i] = float32(i)
	}
	s := p.Slice(1, 3)
	want := []int{2, 2, 3}
	for i, d := range want {
		if s.Dim(i) != d {
			t.Fatalf("slice shape %v, want %v", s.Shape(), want)
		}
	}
	if s.At(0, 0, 0) != 6 || s.At(1, 1, 2) != 17 {
		t.Fatalf("slice window wrong: %v, %v", s.At(0, 0, 0), s.At(1, 1, 2))
	}
	s.Set(99, 0, 1, 0)
	if p.At(1, 1, 0) != 99 {
		t.Fatal("slice does not alias parent")
	}

	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			p.Slice(bad[0], bad[1])
		}()
	}
}

// A view of a view composes: offsets are relative to the inner backing.
func TestViewOfView(t *testing.T) {
	p := New(12)
	for i := range p.Data() {
		p.Data()[i] = float32(i)
	}
	v := p.View(4, 8)
	vv := v.View(2, 3)
	if vv.At(0) != 6 || vv.At(2) != 8 {
		t.Fatalf("nested view wrong: %v, %v", vv.At(0), vv.At(2))
	}
}

// Recycling a view leaves the view and its parent as they were: Recycle
// hands nothing back, so a window on a live buffer stays readable.
func TestRecycleViewIsDropped(t *testing.T) {
	p := New(256)
	for i := range p.Data() {
		p.Data()[i] = float32(i)
	}
	v := p.View(64, 64)
	Recycle(v)
	Recycle(p)
	Recycle(nil)
	if v.Size() != 64 || v.At(0) != 64 || p.Size() != 256 || p.At(255) != 255 {
		t.Fatalf("Recycle changed a tensor: view %d floats, parent %d", v.Size(), p.Size())
	}
}
