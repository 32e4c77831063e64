package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/netlist"
)

// Segment is a compiled circuit segment (one PPET partition/CUT): its
// external input nets are driven by a preceding CBIT in TPG mode, its
// boundary output nets are observed by succeeding CBITs in PSA mode, and
// its internal flip-flops clock normally while patterns pipeline through
// (paper Figure 1(a)). Evaluation is bit-parallel; the lanes are used for
// parallel-fault simulation (lane 0 fault-free, the rest each carrying one
// injected fault), up to 64*MaxLaneWords-way through LaneEngine (lanes.go),
// which holds all mutable fault and state planes, or for 64 fault-free
// patterns at once through the scalar machine (sim.go). A Segment is
// immutable after construction and safe to share between concurrent
// engines.
//
// BuildSegment compiles one cluster of a partition; Compile compiles a
// whole circuit, its primary inputs and outputs standing for the segment's
// input and boundary output nets. Both run the one levelizer, levelize.
type Segment struct {
	// InputNames are the external input net names in deterministic order.
	InputNames []string
	// OutputNames are the boundary output net names (nets sourced in the
	// segment with a sink outside it, or feeding a primary output), in the
	// order StepSample writes them.
	OutputNames []string

	name    string // circuit name
	names   []string
	index   map[string]int
	inputs  []int
	outputs []int
	prog    *program
	opOf    []int32 // signal -> index of the op that drives it, or -1
	dffs    []dffInfo

	// lanePools recycle LaneEngines across batches and workers, one pool
	// per supported vector width (index laneWordsIndex(words)).
	lanePools [3]sync.Pool
}

type dffInfo struct {
	out int // signal index of the DFF output
	in  int // signal index of its data input
}

type gateOp struct {
	typ   netlist.GateType
	out   int
	fanin []int
}

func newSegment(name string, sizeHint int) *Segment {
	return &Segment{name: name, index: make(map[string]int, sizeHint)}
}

// idx returns the dense index of a signal, registering it on first use.
func (sg *Segment) idx(name string) int {
	if i, ok := sg.index[name]; ok {
		return i
	}
	i := len(sg.names)
	sg.index[name] = i
	sg.names = append(sg.names, name)
	return i
}

// BuildSegment compiles the cluster given by nodes (cell node IDs of g,
// backed by circuit c) with the given external input nets. It treats
// flip-flops inside the segment as normal sequential state.
func BuildSegment(c *netlist.Circuit, g *graph.G, nodes []int, inputNets []int) (*Segment, error) {
	sg := newSegment(c.Name, len(inputNets)+2*len(nodes))
	inCluster := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inCluster[v] = true
	}

	ins := slices.Clone(inputNets)
	slices.Sort(ins)
	for _, e := range ins {
		name := g.Nets[e].Name
		sg.InputNames = append(sg.InputNames, name)
		sg.inputs = append(sg.inputs, sg.idx(name))
	}

	// Gather segment gates in a stable order.
	segNodes := slices.Clone(nodes)
	slices.Sort(segNodes)
	gates := make([]*netlist.Gate, len(segNodes))
	for i, v := range segNodes {
		if gates[i] = c.Gate(g.Nodes[v].Name); gates[i] == nil {
			return nil, fmt.Errorf("sim: node %q not in circuit", g.Nodes[v].Name)
		}
	}
	if err := sg.levelize(gates); err != nil {
		return nil, err
	}

	// Boundary outputs: nets sourced at a segment node with a sink outside.
	for _, v := range segNodes {
		for _, e := range g.Out[v] {
			net := &g.Nets[e]
			boundary := false
			for _, s := range net.Sinks {
				if !inCluster[s] {
					boundary = true
					break
				}
			}
			if boundary {
				sg.outputs = append(sg.outputs, sg.idx(net.Name))
			}
		}
	}
	slices.Sort(sg.outputs)
	for _, o := range sg.outputs {
		sg.OutputNames = append(sg.OutputNames, sg.names[o])
	}
	return sg, nil
}

// levelize compiles gates into the segment's flip-flop list and program.
// Flip-flops are state: their outputs are sources, and their data inputs
// latch on every clock. The other gates are sorted topologically by an
// indegree worklist (Kahn), linear in gates + fanin edges: each gate
// counts its fanins driven by another gate of the list, and emitting a
// gate decrements the counters of its consumers. A signal no listed gate
// drives is external (an input, a flip-flop output, or an implicit
// external that reads constant 0 unless driven), ready from the start.
//
// Signals are registered in a fixed order — each flip-flop's output and
// data input, then each combinational gate's output, then their fanins —
// after whatever the caller registered first, so every caller keeps its
// own signal-index order.
func (sg *Segment) levelize(gates []*netlist.Gate) error {
	comb := make([]*netlist.Gate, 0, len(gates))
	for _, gt := range gates {
		if gt.Type == netlist.DFF {
			sg.dffs = append(sg.dffs, dffInfo{out: sg.idx(gt.Name), in: sg.idx(gt.Fanin[0])})
		} else {
			comb = append(comb, gt)
		}
	}
	outIdx := make([]int, len(comb))
	for gi, gt := range comb {
		outIdx[gi] = sg.idx(gt.Name)
	}
	fanins := make([][]int, len(comb))
	for gi, gt := range comb {
		fanin := make([]int, len(gt.Fanin))
		for i, f := range gt.Fanin {
			fanin[i] = sg.idx(f)
		}
		fanins[gi] = fanin
	}

	producer := make([]int32, len(sg.names)) // signal -> comb gate index
	for i := range producer {
		producer[i] = -1
	}
	for gi, oi := range outIdx {
		producer[oi] = int32(gi)
	}
	indeg := make([]int, len(comb))
	consumers := make([][]int32, len(sg.names)) // signal -> comb gates waiting on it
	queue := make([]int, 0, len(comb))
	for gi := range comb {
		for _, fi := range fanins[gi] {
			if producer[fi] >= 0 {
				indeg[gi]++
				consumers[fi] = append(consumers[fi], int32(gi))
			}
		}
		if indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	ops := make([]gateOp, 0, len(comb))
	for head := 0; head < len(queue); head++ {
		gi := queue[head]
		ops = append(ops, gateOp{typ: comb[gi].Type, out: outIdx[gi], fanin: fanins[gi]})
		for _, ci := range consumers[outIdx[gi]] {
			indeg[ci]--
			if indeg[ci] == 0 {
				queue = append(queue, int(ci))
			}
		}
	}
	if len(ops) < len(comb) {
		for gi := range comb {
			if indeg[gi] > 0 {
				return fmt.Errorf("sim: combinational cycle at %q", comb[gi].Name)
			}
		}
	}

	sg.prog = compileProgram(ops, len(sg.names))
	sg.opOf = make([]int32, len(sg.names))
	for i := range sg.opOf {
		sg.opOf[i] = -1
	}
	for i, o := range sg.prog.ops {
		sg.opOf[o.out] = int32(i)
	}
	return nil
}

// NumInputs returns the external input count (the CBIT width this segment
// needs in TPG mode).
func (sg *Segment) NumInputs() int { return len(sg.inputs) }

// NumOutputs returns the boundary output count.
func (sg *Segment) NumOutputs() int { return len(sg.outputs) }

// NumDFFs returns the internal flip-flop count.
func (sg *Segment) NumDFFs() int { return len(sg.dffs) }

// Signals returns all signal names known to the segment (inputs, gate
// outputs, implicit externals) in index order.
func (sg *Segment) Signals() []string { return sg.names }

// Fault is a single stuck-at fault on a named signal.
type Fault struct {
	Signal string
	Stuck1 bool // stuck-at-1 if true, else stuck-at-0
}

func (f Fault) String() string {
	v := 0
	if f.Stuck1 {
		v = 1
	}
	return fmt.Sprintf("%s/SA%d", f.Signal, v)
}
