package dist

import (
	"repro/internal/allreduce"
	"repro/internal/mirrored"
	"repro/internal/unet"
)

// NetStrategy is this process's member of the data-parallel step over a
// wired topology: the same mirrored.Rank a mirrored.Trainer runs R of in
// one process.
type NetStrategy = mirrored.Rank

// NewNetStrategy builds this process's rank over an established topology
// (see mirrored.NewRank).
func NewNetStrategy(topo *allreduce.Topology, net unet.Config, lossName, optName string, baseLR float64, scaleLR bool) (*NetStrategy, error) {
	return mirrored.NewRank(topo, net, lossName, optName, baseLR, scaleLR)
}

// ParamHash renders a model's parameter hash as the hex string workers
// report in done messages (see mirrored.ParamHash).
func ParamHash(m *unet.UNet) string { return mirrored.ParamHash(m) }
