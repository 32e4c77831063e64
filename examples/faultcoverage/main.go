// faultcoverage validates PPET's "high fault coverage" claim end to end:
// partition a benchmark circuit, run the CBIT-driven self-test on every
// segment, and fault-simulate the full single-stuck-at list of every
// segment in one campaign, exactly as the succeeding PSA CBITs would
// observe it.
//
//	go run ./examples/faultcoverage
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ppet"
	"repro/internal/sim"
)

func main() {
	const name = "s510"
	c, err := bench89.Load(name)
	if err != nil {
		log.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(8, 1))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := ppet.BuildPlan(r.Partition)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at l_k=8: %d segments, self-test session 2^%d = %.0f cycles\n",
		name, len(plan.Segments), plan.MaxWidth, plan.TotalTime)

	// Golden signatures: the values the scan chain would read out after a
	// fault-free self-test session.
	sigs, err := ppet.SelfTest(c, r.Partition, ppet.SelfTestOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("golden signatures:")
	for _, s := range sigs {
		fmt.Printf("  segment %2d: %04X after %d cycles\n", s.Cluster, s.Value, s.Cycles)
	}

	// A fault changes its segment's signature.
	someSignal := r.Graph.Nodes[r.Partition.Clusters[0].Nodes[0]].Name
	faulty, err := ppet.SelfTest(c, r.Partition, ppet.SelfTestOptions{
		Seed:  1,
		Fault: &sim.Fault{Signal: someSignal, Stuck1: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range sigs {
		if sigs[i].Value != faulty[i].Value {
			fmt.Printf("injected %s/SA1: segment %d signature %04X -> %04X (detected)\n",
				someSignal, sigs[i].Cluster, sigs[i].Value, faulty[i].Value)
		}
	}

	// Full per-segment stuck-at campaign, with the defaults of
	// `merced -cover -circuit s510 -lk 8`.
	rep, err := fault.Campaign(context.Background(), c, r.Partition, fault.CampaignOptions{Seed: 1, Collapse: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-segment single-stuck-at coverage:")
	for _, sc := range rep.Segments {
		fmt.Printf("  segment %2d: %3d cells, %2d inputs -> %4d/%4d faults (%.1f%%)\n",
			sc.Cluster, sc.Cells, sc.Inputs, sc.Detected, sc.Total, 100*sc.Ratio())
	}
	fmt.Printf("overall: %d/%d = %.2f%% single-stuck-at coverage\n",
		rep.Detected, rep.Total, 100*rep.Ratio())
}
