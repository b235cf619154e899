package cluster

import "testing"

func TestMareNostrumTopology(t *testing.T) {
	c, err := MareNostrum(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalGPUs() != 32 {
		t.Fatalf("8 nodes × 4 GPUs = 32, got %d", c.TotalGPUs())
	}
	if c.GPUsPerNode != NodeGPUs {
		t.Fatalf("paper nodes have %d GPUs, got %d", NodeGPUs, c.GPUsPerNode)
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
