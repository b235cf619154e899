package tensor

import "testing"

// TestOwnedGrowsOnceThenReslices: an Owned allocates when a volume exceeds
// everything seen before and never otherwise — equal shapes return the same
// header, smaller ones a window on the same backing — and Release starts over.
func TestOwnedGrowsOnceThenReslices(t *testing.T) {
	var o Owned
	a := o.Shaped(2, 4, 16)
	if a.Size() != 128 || a.Dim(2) != 16 {
		t.Fatalf("shape %v", a.Shape())
	}
	a.Fill(7)
	if b := o.Shaped(2, 4, 16); b != a {
		t.Fatal("an unchanged shape built a new header")
	}
	small := o.Shaped(3, 5)
	if &small.Data()[0] != &a.Data()[0] || small.Size() != 15 || cap(small.Data()) != 15 {
		t.Fatalf("a smaller shape did not reslice the backing (len %d cap %d)", small.Size(), cap(small.Data()))
	}
	if small.Data()[14] != 7 {
		t.Fatal("reslicing cleared the buffer; contents are the last user's")
	}

	big := o.Shaped(4, 64)
	if &big.Data()[0] == &a.Data()[0] {
		t.Fatal("a larger shape did not grow the backing")
	}
	if allocs := testing.AllocsPerRun(10, func() { o.Shaped(4, 64) }); allocs != 0 {
		t.Fatalf("steady-state Shaped allocates %v times", allocs)
	}
	o.Release()
	if fresh := o.Shaped(4, 64); &fresh.Data()[0] == &big.Data()[0] {
		t.Fatal("Release kept the buffer")
	}
}

// TestRecycleKeepsOwnedData: Recycle on a tensor an Owned hands out leaves
// it whole — the owner hands the same header out again — so the owner's
// next same-shape Shaped still has its data.
func TestRecycleKeepsOwnedData(t *testing.T) {
	var o Owned
	a := o.Shaped(2, 3)
	a.Fill(5)
	Recycle(a)
	b := o.Shaped(2, 3)
	if b.Size() != 6 || b.At(1, 2) != 5 {
		t.Fatalf("after Recycle, Shaped returned %d floats", b.Size())
	}
}
