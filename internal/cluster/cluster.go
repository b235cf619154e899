// Package cluster describes the machine a tuning campaign runs on: a grid
// of HPC nodes with NodeGPUs GPUs each (MareNostrum-CTE), the Ray.Cluster
// analogue. tune.Runner divides its GPUs into trial slots, and raysgd reads
// the node width to group ring replicas by node.
package cluster

import "fmt"

// NodeGPUs is the GPU count of one MareNostrum-CTE node (4 NVIDIA V100).
const NodeGPUs = 4

// Cluster is a homogeneous multi-node multi-GPU machine.
type Cluster struct {
	NodeCount   int
	GPUsPerNode int
}

// MareNostrum returns the paper's cluster with the given node count: IBM
// Power9 nodes with NodeGPUs NVIDIA V100 16 GB GPUs each.
func MareNostrum(nodes int) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", nodes)
	}
	return &Cluster{NodeCount: nodes, GPUsPerNode: NodeGPUs}, nil
}

// ForGPUs returns a MareNostrum cluster of exactly n GPUs, matching the
// paper's scaling ladder (1..32 GPUs): one n-GPU node for n ≤ NodeGPUs,
// whole nodes above that. A campaign asking for n GPUs therefore gets n
// trial slots, never a rounded-up node.
func ForGPUs(n int) (*Cluster, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("cluster: GPU count must be positive, got %d", n)
	case n <= NodeGPUs:
		return &Cluster{NodeCount: 1, GPUsPerNode: n}, nil
	case n%NodeGPUs != 0:
		return nil, fmt.Errorf("cluster: %d GPUs above one node must be whole %d-GPU nodes", n, NodeGPUs)
	}
	return MareNostrum(n / NodeGPUs)
}

// TotalGPUs returns the number of GPUs in the cluster.
func (c *Cluster) TotalGPUs() int { return c.NodeCount * c.GPUsPerNode }
