// Package ppet assembles pipelined pseudo-exhaustive testing on a
// partitioned circuit (paper Figure 1): each segment gets a preceding CBIT
// in TPG mode and a succeeding CBIT in PSA mode, every segment is tested
// concurrently, and the total testing time is dominated by the widest CBIT
// in the design, O(2^max_width) clock cycles.
package ppet

import (
	"fmt"

	"repro/internal/cbit"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// SegmentPlan is the per-CUT test configuration.
type SegmentPlan struct {
	Cluster     int // cluster ID in the partition result
	Inputs      int // iota: external input nets, the TPG pattern width
	Outputs     int // boundary output nets observed by the PSA CBIT
	TPGWidth    int // standard CBIT width covering Inputs
	PSAWidth    int // MISR width (outputs folded into at most 32 bits)
	TestingTime float64
}

// Plan is a full PPET test plan.
type Plan struct {
	Segments []SegmentPlan
	// MaxWidth is the widest TPG CBIT; TotalTime = 2^MaxWidth dominates the
	// self-test session (Figure 1(b)).
	MaxWidth  int
	TotalTime float64
}

// BuildPlan derives the PPET plan from a partition result. Clusters with
// iota exceeding the largest standard CBIT are reported as errors: the
// partition must be re-run with a feasible l_k.
func BuildPlan(r *partition.Result) (*Plan, error) {
	p := &Plan{}
	for _, c := range r.Clusters {
		iota := c.Inputs()
		w, ok := cbit.TypeFor(iota)
		if !ok {
			return nil, fmt.Errorf("ppet: cluster %d has %d inputs, exceeding the widest CBIT (%d)",
				c.ID, iota, cbit.MaxWidth)
		}
		outs := countBoundaryOutputs(r, c)
		psa := outs
		if psa < cbit.MinWidth {
			psa = cbit.MinWidth
		}
		if psa > cbit.MaxWidth {
			psa = cbit.MaxWidth
		}
		sp := SegmentPlan{
			Cluster:     c.ID,
			Inputs:      iota,
			Outputs:     outs,
			TPGWidth:    w,
			PSAWidth:    psa,
			TestingTime: cbit.TestingTime(w),
		}
		p.Segments = append(p.Segments, sp)
		if w > p.MaxWidth {
			p.MaxWidth = w
		}
	}
	p.TotalTime = cbit.TestingTime(p.MaxWidth)
	return p, nil
}

func countBoundaryOutputs(r *partition.Result, c *partition.Cluster) int {
	g := r.G
	in := make(map[int]bool, len(c.Nodes))
	for _, v := range c.Nodes {
		in[v] = true
	}
	n := 0
	for _, v := range c.Nodes {
		for _, e := range g.Out[v] {
			for _, s := range g.Nets[e].Sinks {
				if !in[s] {
					n++
					break
				}
			}
		}
	}
	return n
}

// Signature is a per-segment self-test outcome.
type Signature struct {
	Cluster int
	Value   uint64
	Cycles  uint64
}

// SelfTestOptions tunes the self-test simulation.
type SelfTestOptions struct {
	// Seed selects CBIT initial states (scan preset).
	Seed int64
	// MaxCycles caps the per-segment simulated cycles (0: min(2^w-1, 2^16)).
	MaxCycles uint64
	// Fault, when non-nil, is injected into every segment that knows the
	// signal (normally exactly one segment).
	Fault *sim.Fault
}

// SelfTest simulates the PPET session on every segment of the partition:
// the TPG CBIT's maximal-length sequence drives the segment inputs, the
// boundary responses fold into a MISR each cycle, and the per-segment
// signatures are returned in cluster order. With identical options the
// signatures are fully deterministic, so a fault is detected iff its
// segment signature differs from the golden run.
func SelfTest(c *netlist.Circuit, r *partition.Result, opt SelfTestOptions) ([]Signature, error) {
	plan, err := BuildPlan(r)
	if err != nil {
		return nil, err
	}
	var sigs []Signature
	for i, sp := range plan.Segments {
		cl := r.Clusters[i]
		inputs := make([]int, 0, len(cl.InputNets))
		//detlint:ordered BuildSegment sorts its inputNets argument before indexing (sim/segment.go)
		for e := range cl.InputNets {
			inputs = append(inputs, e)
		}
		sg, err := sim.BuildSegment(c, r.G, cl.Nodes, inputs)
		if err != nil {
			return nil, err
		}
		sig, cycles, err := runSegment(sg, sp, opt)
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, Signature{Cluster: sp.Cluster, Value: sig, Cycles: cycles})
	}
	return sigs, nil
}

func runSegment(sg *sim.Segment, sp SegmentPlan, opt SelfTestOptions) (uint64, uint64, error) {
	tpgW := sp.TPGWidth
	if tpgW < cbit.MinWidth {
		tpgW = cbit.MinWidth
	}
	tpg, err := cbit.New(tpgW)
	if err != nil {
		return 0, 0, err
	}
	psa, err := cbit.New(sp.PSAWidth)
	if err != nil {
		return 0, 0, err
	}
	seed := uint64(opt.Seed)*2654435761 + uint64(sp.Cluster) + 1
	seed &= uint64(1)<<uint(tpgW) - 1
	if seed == 0 {
		seed = 1
	}
	if err := tpg.SetState(seed); err != nil {
		return 0, 0, err
	}

	eng, err := sg.GetLaneEngine(1)
	if err != nil {
		return 0, 0, err
	}
	defer sg.PutLaneEngine(eng)
	observeLane := 0
	if opt.Fault != nil {
		if err := eng.Inject(*opt.Fault, 1); err == nil {
			observeLane = 1 // faulty machine runs in lane 1
		}
		// Unknown signal in this segment: run fault-free (lane 0).
	}

	max := opt.MaxCycles
	if max == 0 {
		full := tpg.Period()
		if full > 1<<16 {
			full = 1 << 16
		}
		max = full
	}
	outs := make([]uint64, sg.NumOutputs())
	var cycles uint64
	for ; cycles < max; cycles++ {
		pat := tpg.StepTPG()
		eng.StepSample(pat, observeLane, outs)
		var word uint64
		for j, bit := range outs {
			word ^= bit << uint(j%sp.PSAWidth)
		}
		psa.StepPSA(word)
	}
	return psa.State(), cycles, nil
}

// PipeTime returns the Figure 1(b) testing time for a test pipe whose CBIT
// widths are given: the pipe is dominated by its widest CBIT.
func PipeTime(widths []int) float64 {
	m := 0
	for _, w := range widths {
		if w > m {
			m = w
		}
	}
	return cbit.TestingTime(m)
}

// PETTime returns the testing time of conventional (non-pipelined)
// pseudo-exhaustive testing over the same segments: without the pipelined
// concurrency of Figure 1, segments are tested one after another, so the
// session takes the sum of the per-segment times instead of their maximum.
// The ratio PETTime/Plan.TotalTime is PPET's speed-up.
func PETTime(p *Plan) float64 {
	total := 0.0
	for _, s := range p.Segments {
		total += s.TestingTime
	}
	return total
}

// SpeedUp returns PETTime/TotalTime: how much faster the pipelined session
// is than testing the same segments serially.
func (p *Plan) SpeedUp() float64 {
	if p.TotalTime == 0 {
		return 1
	}
	return PETTime(p) / p.TotalTime
}
