// Package cluster models the resource layer of the paper's deployment: a
// grid of HPC nodes with four GPUs each (MareNostrum-CTE), the Ray.Cluster
// analogue. It tracks GPU allocation for trial placement and exposes the
// topology facts (which GPUs share a node) the performance model needs.
package cluster

import "fmt"

// Cluster is a homogeneous multi-node multi-GPU machine.
type Cluster struct {
	NodeCount   int
	GPUsPerNode int
}

// MareNostrum returns the paper's cluster with the given node count: IBM
// Power9 nodes with 4 NVIDIA V100 16 GB GPUs each. The device and
// interconnect models live in gpusim and netsim; perfmodel carries them.
func MareNostrum(nodes int) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", nodes)
	}
	return &Cluster{
		NodeCount:   nodes,
		GPUsPerNode: 4,
	}, nil
}

// ForGPUs returns a MareNostrum cluster of exactly n GPUs, matching the
// paper's scaling ladder (1..32 GPUs): one n-GPU node for n ≤ 4, whole
// 4-GPU nodes above that. A campaign asking for n GPUs therefore gets n
// trial slots, never a rounded-up node.
func ForGPUs(n int) (*Cluster, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("cluster: GPU count must be positive, got %d", n)
	case n <= 4:
		c, err := MareNostrum(1)
		if err != nil {
			return nil, err
		}
		c.GPUsPerNode = n
		return c, nil
	case n%4 != 0:
		return nil, fmt.Errorf("cluster: %d GPUs above one node must be whole 4-GPU nodes", n)
	}
	return MareNostrum(n / 4)
}

// TotalGPUs returns the number of GPUs in the cluster.
func (c *Cluster) TotalGPUs() int { return c.NodeCount * c.GPUsPerNode }

// NodeOf returns the node index hosting the given GPU.
func (c *Cluster) NodeOf(gpu int) int {
	if gpu < 0 || gpu >= c.TotalGPUs() {
		panic(fmt.Sprintf("cluster: gpu %d out of range [0,%d)", gpu, c.TotalGPUs()))
	}
	return gpu / c.GPUsPerNode
}

// NodesSpanned returns how many nodes a contiguous allocation of n GPUs
// (packed placement) occupies.
func (c *Cluster) NodesSpanned(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + c.GPUsPerNode - 1) / c.GPUsPerNode
}

// PlacementPolicy selects how trials are laid onto GPUs.
type PlacementPolicy int

// Placement policies.
const (
	// Pack fills each node before opening the next (Ray's default
	// locality-aware packing).
	Pack PlacementPolicy = iota
	// Spread round-robins across nodes, minimizing per-node contention.
	Spread
)

// Alloc tracks which GPUs are busy.
type Alloc struct {
	c      *Cluster
	busy   []bool
	byNode []int
	policy PlacementPolicy
}

// NewAlloc returns an empty allocation tracker with the given policy.
func (c *Cluster) NewAlloc(policy PlacementPolicy) *Alloc {
	return &Alloc{
		c:      c,
		busy:   make([]bool, c.TotalGPUs()),
		byNode: make([]int, c.NodeCount),
		policy: policy,
	}
}

// Acquire reserves one free GPU according to the policy. It returns the GPU
// id and false when the cluster is fully busy.
func (a *Alloc) Acquire() (int, bool) {
	switch a.policy {
	case Spread:
		// Pick the least-loaded node with a free GPU.
		bestNode, bestLoad := -1, 1<<30
		for n := 0; n < a.c.NodeCount; n++ {
			if a.byNode[n] < a.c.GPUsPerNode && a.byNode[n] < bestLoad {
				bestNode, bestLoad = n, a.byNode[n]
			}
		}
		if bestNode < 0 {
			return 0, false
		}
		for g := bestNode * a.c.GPUsPerNode; g < (bestNode+1)*a.c.GPUsPerNode; g++ {
			if !a.busy[g] {
				a.take(g)
				return g, true
			}
		}
		return 0, false
	default: // Pack
		for g := range a.busy {
			if !a.busy[g] {
				a.take(g)
				return g, true
			}
		}
		return 0, false
	}
}

// AcquireN reserves n free GPUs according to the policy, or none and false
// when fewer than n are free.
func (a *Alloc) AcquireN(n int) ([]int, bool) {
	if n > a.FreeGPUs() {
		return nil, false
	}
	gpus := make([]int, n)
	for i := range gpus {
		gpus[i], _ = a.Acquire()
	}
	return gpus, true
}

func (a *Alloc) take(g int) {
	a.busy[g] = true
	a.byNode[a.c.NodeOf(g)]++
}

// Release frees a previously acquired GPU.
func (a *Alloc) Release(g int) {
	if g < 0 || g >= len(a.busy) || !a.busy[g] {
		panic(fmt.Sprintf("cluster: releasing GPU %d that is not held", g))
	}
	a.busy[g] = false
	a.byNode[a.c.NodeOf(g)]--
}

// Active returns the number of busy GPUs.
func (a *Alloc) Active() int {
	n := 0
	for _, b := range a.busy {
		if b {
			n++
		}
	}
	return n
}

// ActiveOnNode returns the busy-GPU count of the node hosting GPU g.
func (a *Alloc) ActiveOnNode(g int) int { return a.byNode[a.c.NodeOf(g)] }

// FreeGPUs returns the number of idle GPUs.
func (a *Alloc) FreeGPUs() int { return len(a.busy) - a.Active() }
