package cluster

import (
	"testing"
	"testing/quick"
)

func TestMareNostrumTopology(t *testing.T) {
	c, err := MareNostrum(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalGPUs() != 32 {
		t.Fatalf("8 nodes × 4 GPUs = 32, got %d", c.TotalGPUs())
	}
	if c.NodeOf(0) != 0 || c.NodeOf(3) != 0 || c.NodeOf(4) != 1 || c.NodeOf(31) != 7 {
		t.Fatal("NodeOf mapping wrong")
	}
}

func TestMareNostrumRejectsBadNodes(t *testing.T) {
	if _, err := MareNostrum(0); err == nil {
		t.Fatal("0 nodes must error")
	}
}

func TestForGPUs(t *testing.T) {
	// One n-GPU node up to a full node, whole 4-GPU nodes above: the cluster
	// holds exactly the GPUs asked for.
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 3: {1, 3}, 4: {1, 4}, 8: {2, 4}, 12: {3, 4}, 16: {4, 4}, 32: {8, 4}}
	for gpus, want := range cases {
		c, err := ForGPUs(gpus)
		if err != nil {
			t.Fatal(err)
		}
		if c.NodeCount != want[0] || c.GPUsPerNode != want[1] || c.TotalGPUs() != gpus {
			t.Fatalf("%d GPUs: %d nodes × %d, want %d × %d", gpus, c.NodeCount, c.GPUsPerNode, want[0], want[1])
		}
	}
	for _, bad := range []int{0, -1, 5, 6, 10} {
		if _, err := ForGPUs(bad); err == nil {
			t.Fatalf("ForGPUs(%d) must error", bad)
		}
	}
}

func TestAcquireNAllOrNothing(t *testing.T) {
	c, _ := MareNostrum(1)
	a := c.NewAlloc(Pack)
	gpus, ok := a.AcquireN(3)
	if !ok || len(gpus) != 3 || a.Active() != 3 {
		t.Fatalf("AcquireN(3) = %v %v, active %d", gpus, ok, a.Active())
	}
	if _, ok := a.AcquireN(2); ok || a.Active() != 3 {
		t.Fatalf("AcquireN(2) with one free GPU must take nothing; active %d", a.Active())
	}
}

func TestNodeOfPanicsOutOfRange(t *testing.T) {
	c, _ := MareNostrum(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.NodeOf(4)
}

func TestNodesSpanned(t *testing.T) {
	c, _ := MareNostrum(8)
	cases := map[int]int{0: 0, 1: 1, 4: 1, 5: 2, 8: 2, 12: 3, 32: 8}
	for n, want := range cases {
		if got := c.NodesSpanned(n); got != want {
			t.Fatalf("NodesSpanned(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAllocPackFillsNodeFirst(t *testing.T) {
	c, _ := MareNostrum(2)
	a := c.NewAlloc(Pack)
	var got []int
	for i := 0; i < 5; i++ {
		g, ok := a.Acquire()
		if !ok {
			t.Fatal("acquire failed with free GPUs")
		}
		got = append(got, g)
	}
	// Pack policy: GPUs 0-3 on node 0, then 4 on node 1.
	for i, want := range []int{0, 1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("pack order %v", got)
		}
	}
	if a.ActiveOnNode(0) != 4 || a.ActiveOnNode(4) != 1 {
		t.Fatal("per-node accounting wrong")
	}
}

func TestAllocSpreadBalancesNodes(t *testing.T) {
	c, _ := MareNostrum(2)
	a := c.NewAlloc(Spread)
	nodes := map[int]int{}
	for i := 0; i < 4; i++ {
		g, ok := a.Acquire()
		if !ok {
			t.Fatal("acquire failed")
		}
		nodes[c.NodeOf(g)]++
	}
	if nodes[0] != 2 || nodes[1] != 2 {
		t.Fatalf("spread placed %v, want 2 per node", nodes)
	}
}

func TestAllocExhaustion(t *testing.T) {
	c, _ := MareNostrum(1)
	a := c.NewAlloc(Pack)
	for i := 0; i < 4; i++ {
		if _, ok := a.Acquire(); !ok {
			t.Fatal("early exhaustion")
		}
	}
	if _, ok := a.Acquire(); ok {
		t.Fatal("acquire must fail when full")
	}
	if a.FreeGPUs() != 0 || a.Active() != 4 {
		t.Fatal("accounting wrong at exhaustion")
	}
}

func TestReleaseRecycles(t *testing.T) {
	c, _ := MareNostrum(1)
	a := c.NewAlloc(Pack)
	g, _ := a.Acquire()
	a.Release(g)
	if a.Active() != 0 {
		t.Fatal("release did not free")
	}
	g2, ok := a.Acquire()
	if !ok || g2 != g {
		t.Fatalf("expected to re-acquire GPU %d, got %d", g, g2)
	}
}

func TestReleasePanicsOnDoubleFree(t *testing.T) {
	c, _ := MareNostrum(1)
	a := c.NewAlloc(Pack)
	g, _ := a.Acquire()
	a.Release(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release(g)
}

// Property: acquire/release keeps Active() consistent for any sequence.
func TestPropertyAllocConsistency(t *testing.T) {
	f := func(ops []bool) bool {
		c, _ := MareNostrum(2)
		a := c.NewAlloc(Pack)
		var held []int
		for _, acquire := range ops {
			if acquire {
				if g, ok := a.Acquire(); ok {
					held = append(held, g)
				}
			} else if len(held) > 0 {
				a.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		if a.Active() != len(held) {
			return false
		}
		sum := 0
		for n := 0; n < c.NodeCount; n++ {
			sum += a.byNode[n]
		}
		return sum == len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
