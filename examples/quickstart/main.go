// Quickstart: parse a .bench netlist, compile it with Merced for pipelined
// pseudo-exhaustive testing, and print the partition and area report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netlist"
)

// A small pipeline with a feedback loop: two stages of logic around two
// flip-flops, one of which sits on a cycle.
const design = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(out)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
r1 = DFF(n3)
n4 = AND(r1, fb)
n5 = OR(n4, n2)
r2 = DFF(n5)
fb = NOT(r2)
out = NAND(r2, n1)
`

func main() {
	// 1. Parse the netlist.
	c, err := netlist.ParseBenchString("quickstart", design)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("circuit:", c)

	// 2. Compile for PPET: input constraint l_k=3, the paper's beta=50,
	//    a fixed seed for reproducible flow congestion.
	opt := core.DefaultOptions(3, 1)
	r, err := core.Compile(context.Background(), c, opt)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the partition.
	fmt.Printf("partition: %d clusters (max %d inputs each), %d cut nets\n",
		len(r.Partition.Clusters), r.Partition.MaxInputs(), r.Areas.CutNets)
	for _, cl := range r.Partition.Clusters {
		names := make([]string, 0, len(cl.Nodes))
		for _, v := range cl.Nodes {
			names = append(names, r.Graph.Nodes[v].Name)
		}
		fmt.Printf("  cluster %d (%d inputs): %v\n", cl.ID, cl.Inputs(), names)
	}

	// 4. The area verdict: how much test hardware does retiming save?
	fmt.Printf("CBIT area with retiming: %.0f units (%.1f%% of total)\n",
		r.Areas.CBITAreaRetimed, r.Areas.RatioRetimed)
	fmt.Printf("CBIT area without:       %.0f units (%.1f%% of total)\n",
		r.Areas.CBITAreaNonRetimed, r.Areas.RatioNonRetimed)
	fmt.Printf("retiming saves %.1f percentage points of test hardware\n", r.Areas.Saving())

	// 5. Which cut nets did retiming cover with functional registers?
	for _, e := range r.Retiming.Covered {
		fmt.Printf("  covered: register repositioned onto net %s\n", r.Graph.Nets[e].Name)
	}
	for _, e := range r.Retiming.Demoted {
		fmt.Printf("  demoted: net %s needs a multiplexed A_CELL (cycle register limit)\n", r.Graph.Nets[e].Name)
	}
}
