// areasweep demonstrates the testing-time vs. test-hardware trade-off the
// paper's Figure 4 and Table 12 frame: sweeping the input constraint l_k
// over the standard CBIT sizes changes both the self-test session length
// (2^l_k cycles) and the cut-net count, and sweeping beta (Eq. 6) shows the
// retiming budget trade-off on the strongly connected components.
//
// Both sweeps run through internal/sweep, the batch engine behind
// `merced -sweep`: every (circuit, l_k, beta, seed) job is independent, so
// the engine spreads them across a worker pool and still returns results
// in job order.
//
//	go run ./examples/areasweep
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cbit"
	"repro/internal/sweep"
)

func main() {
	const name = "s641"
	ctx := context.Background()

	// l_k sweep: one job per standard CBIT width, compiled in parallel.
	jobs := sweep.Matrix([]string{name}, cbit.StandardWidths, []int{50}, []int64{1})
	rep, err := sweep.Run(ctx, jobs, sweep.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("l_k sweep on %s (beta=50, %d workers, %v wall):\n",
		name, rep.Stats.Workers, rep.Stats.Wall.Round(time.Millisecond))
	fmt.Println("  l_k  testing_time  cuts  on_scc  covered  A_CBIT%/ret  A_CBIT%/noret  saving")
	for _, jr := range rep.Jobs {
		if jr.Err != nil {
			log.Fatal(jr.Err)
		}
		fmt.Printf("  %3d  %12.0f  %4d  %6d  %7d  %11.1f  %13.1f  %6.1f\n",
			jr.Job.LK, cbit.TestingTime(jr.Job.LK), jr.Areas.CutNets, jr.Areas.CutNetsOnSCC,
			jr.Areas.CoveredCuts, jr.Areas.RatioRetimed, jr.Areas.RatioNonRetimed, jr.Areas.Saving())
	}

	// Beta trade-off: a small beta restricts cuts inside SCCs (cheaper
	// retimed hardware per cut, but the partitioner may need more or
	// wider clusters -> longer testing time). The paper leaves beta to the
	// designer and uses 50 for the unrestricted experiments.
	jobs = sweep.Matrix([]string{name}, []int{16}, []int{1, 2, 5, 50}, []int64{1})
	rep, err = sweep.Run(ctx, jobs, sweep.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbeta sweep on %s (l_k=16):\n", name)
	fmt.Println("  beta  cuts  on_scc  max_inputs  covered  excess")
	for _, jr := range rep.Jobs {
		if jr.Err != nil {
			log.Fatal(jr.Err)
		}
		fmt.Printf("  %4d  %4d  %6d  %10d  %7d  %6d\n",
			jr.Job.Beta, jr.Areas.CutNets, jr.Areas.CutNetsOnSCC, jr.MaxInputs,
			jr.Areas.CoveredCuts, jr.Areas.ExcessCuts)
	}
}
