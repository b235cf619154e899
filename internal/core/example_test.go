package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/msd"
	"repro/internal/tune"
	"repro/internal/unet"
)

// ExampleRun is the smallest end-to-end tour of the reproduction: the
// paper's 3D U-Net and its size, then the same two-configuration search
// run under both of the paper's strategies (Figure 1) on a laptop-scale
// network and synthetic brain phantoms. Training is bit-for-bit
// deterministic, so the Dice values are the same at any worker count.
func ExampleRun() {
	paperNet := unet.MustNew(unet.PaperConfig())
	fmt.Printf("paper 3D U-Net: %d parameters\n", paperNet.ParamCount())

	opts := core.DefaultOptions()
	opts.Dataset = msd.Config{Cases: 12, D: 8, H: 8, W: 8, Seed: 7}
	opts.Epochs = 2
	opts.MaxTrainCases = 6
	opts.MaxValCases = 2
	space, err := tune.NewSpace(
		tune.Grid("lr", 0.01, 0.03),
		tune.Grid("loss", "dice"),
		tune.Grid("optimizer", "adam"),
	)
	if err != nil {
		log.Fatal(err)
	}
	opts.Space = space
	opts.GPUs = 2

	for _, strategy := range []core.Strategy{core.StrategyData, core.StrategyExperiment} {
		opts.Strategy = strategy
		res, err := core.Run(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d trials, best dice %.3f with %v\n",
			strategy, len(res.Trials), res.BestDice, res.Best)
	}
	// Output:
	// paper 3D U-Net: 409657 parameters
	// data: 2 trials, best dice 0.202 with map[loss:dice lr:0.03 optimizer:adam]
	// experiment: 2 trials, best dice 0.181 with map[loss:dice lr:0.01 optimizer:adam]
}
