package msd_test

import (
	"fmt"

	"repro/internal/msd"
	"repro/internal/volume"
)

// ExampleGenerateCase shows the class imbalance of one synthetic case (the
// paper's Figure 3): background fills most of the volume, and the tumour
// sub-regions together are a few percent of it. That imbalance is why the
// network trains on a Dice loss, against the binarized whole-tumour mask.
func ExampleGenerateCase() {
	v := msd.GenerateCase(msd.Config{Cases: 1, D: 20, H: 28, W: 56, Seed: 13}, 0)
	fmt.Printf("%s: %d modalities %v, %d×%d×%d voxels\n",
		v.Name, len(msd.Modalities), msd.Modalities, v.D, v.H, v.W)

	counts := make([]int, volume.NumClasses)
	for _, l := range v.Labels {
		counts[l]++
	}
	names := []string{"background", "edema", "non-enhancing tumour", "enhancing tumour"}
	for cls, n := range counts {
		fmt.Printf("%-21s %5d voxels (%5.2f%%)\n", names[cls], n, 100*float64(n)/float64(len(v.Labels)))
	}
	fmt.Printf("whole-tumour fraction: %.2f%%\n", 100*v.TumorFraction())
	// Output:
	// BRATS_001: 4 modalities [FLAIR T1w T1gd T2w], 20×28×56 voxels
	// background            30648 voxels (97.73%)
	// edema                   572 voxels ( 1.82%)
	// non-enhancing tumour    118 voxels ( 0.38%)
	// enhancing tumour         22 voxels ( 0.07%)
	// whole-tumour fraction: 2.27%
}
