package verify

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/retime"
)

// Report summarises a co-simulation equivalence check.
type Report struct {
	// Cycles simulated.
	Cycles int
	// Compared counts output observations where both machines were binary.
	Compared int
	// Unknown counts observations where the retimed machine was still X
	// (conservative initial-state loss, not a mismatch).
	Unknown int
	// Mismatches counts defined output bits that disagreed. Zero for a
	// correct retiming.
	Mismatches int
	// LatencyShift is the uniform I/O latency difference rho(sink) -
	// rho(source) the check compensated for.
	LatencyShift int
	// ExactInit reports whether the initial state was computed without
	// introducing unknowns.
	ExactInit bool
}

// Check co-simulates the original circuit and its retiming under random
// primary-input stimulus and verifies that every defined retimed output
// matches the original, after compensating the peripheral latency shift.
func Check(c *netlist.Circuit, g *graph.G, cg *retime.CombGraph, rho []int, cycles int, seed int64) (*Report, error) {
	if err := cg.CheckLegal(rho); err != nil {
		return nil, err
	}
	origWeights := make([]int, len(cg.Edges))
	retWeights := make([]int, len(cg.Edges))
	for e := range cg.Edges {
		origWeights[e] = cg.Edges[e].W
		retWeights[e] = cg.RetimedWeight(rho, e)
	}

	// Adding a constant to every label gives the same retiming, so pin the
	// host source at 0. Otherwise InitialState turns the source's moves into
	// unknown registers on the PI edges and leaves the internal registers
	// at reset, while the comparison below needs the reset state at retimed
	// cycle LatencyShift.
	rho = slices.Clone(rho)
	r0 := rho[cg.SourceV]
	for v := range rho {
		rho[v] -= r0
	}
	init, exact, err := InitialState(c, g, cg, rho, nil)
	if err != nil {
		return nil, err
	}
	// Original machine: zero-initialised registers (ISCAS89 reset).
	zeroInit := make([][]Tri, len(cg.Edges))
	for e := range cg.Edges {
		zeroInit[e] = make([]Tri, origWeights[e])
	}
	orig, err := NewMachine(c, g, cg, origWeights, zeroInit)
	if err != nil {
		return nil, err
	}
	ret, err := NewMachine(c, g, cg, retWeights, init)
	if err != nil {
		return nil, err
	}

	shift := rho[cg.SinkV] - rho[cg.SourceV]
	rep := &Report{Cycles: cycles, LatencyShift: shift, ExactInit: exact}

	// Gather the PI nets so stimulus covers each one, drawn in ascending
	// net order so that one seed gives one report.
	var piNets []int
	for e := range cg.Edges {
		if cg.Edges[e].From == cg.SourceV {
			piNets = append(piNets, cg.Edges[e].PathNets[0])
		}
	}
	slices.Sort(piNets)
	piNets = slices.Compact(piNets)
	rng := rand.New(rand.NewSource(seed))
	mkInputs := func() map[int]Tri {
		in := make(map[int]Tri, len(piNets))
		for _, net := range piNets {
			if rng.Intn(2) == 0 {
				in[net] = F
			} else {
				in[net] = T
			}
		}
		return in
	}

	// The retimed machine lags (shift > 0) or leads (shift < 0) by |shift|
	// cycles; buffer original outputs and compare offset.
	type outFrame map[int]Tri
	var origHist, retHist []outFrame
	for t := 0; t < cycles; t++ {
		in := mkInputs()
		origHist = append(origHist, orig.Cycle(in))
		retHist = append(retHist, ret.Cycle(in))
	}
	for t := 0; t < cycles; t++ {
		rt := t + shift
		if rt < 0 || rt >= cycles {
			continue
		}
		//detlint:ordered counters are commutative and the early return is an error path where any missing net is a correct witness
		for net, ov := range origHist[t] {
			rv, ok := retHist[rt][net]
			if !ok {
				return nil, fmt.Errorf("verify: output net %d missing from retimed machine", net)
			}
			if ov == X {
				continue // original itself undefined (rare: X stimulus never used)
			}
			if rv == X {
				rep.Unknown++
				continue
			}
			rep.Compared++
			if rv != ov {
				rep.Mismatches++
			}
		}
	}
	return rep, nil
}

// CheckCompile is a convenience wrapper: build the comb graph for a
// circuit, solve the retiming for the given cut nets, and check it. The
// context cancels the retiming solve.
func CheckCompile(ctx context.Context, c *netlist.Circuit, g *graph.G, cuts map[int]bool, cycles int, seed int64) (*Report, *retime.Solution, error) {
	cg := retime.Build(g)
	sol, err := retime.Solve(ctx, cg, cuts, nil)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Check(c, g, cg, sol.Rho, cycles, seed)
	if err != nil {
		return nil, nil, err
	}
	return rep, sol, nil
}
