package sim

import (
	"fmt"
	"sort"
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
// which holds all mutable fault and state planes. A Segment is immutable
// after BuildSegment and safe to share between concurrent engines.
type Segment struct {
	// InputNames are the external input net names in deterministic order.
	InputNames []string
	// OutputNames are the boundary output net names (nets sourced in the
	// segment with a sink outside it, or feeding a primary output).
	OutputNames []string

	names   []string
	index   map[string]int
	inputs  []int
	outputs []int
	prog    *program
	opOf    []int32 // signal -> index of the op that drives it, or -1
	dffs    []dffInfo

	// lanePools recycle LaneEngines across batches and workers, one pool
	// per supported vector width (index laneWordsIndex(words)).
	lanePools [4]sync.Pool
}

// BuildSegment compiles the cluster given by nodes (cell node IDs of g,
// backed by circuit c) with the given external input nets. It treats
// flip-flops inside the segment as normal sequential state.
func BuildSegment(c *netlist.Circuit, g *graph.G, nodes []int, inputNets []int) (*Segment, error) {
	sg := &Segment{index: make(map[string]int, len(inputNets)+2*len(nodes))}
	inCluster := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		inCluster[v] = true
	}
	idx := func(name string) int {
		if i, ok := sg.index[name]; ok {
			return i
		}
		i := len(sg.names)
		sg.index[name] = i
		sg.names = append(sg.names, name)
		return i
	}

	ins := append([]int(nil), inputNets...)
	sort.Ints(ins)
	for _, e := range ins {
		name := g.Nets[e].Name
		sg.InputNames = append(sg.InputNames, name)
		sg.inputs = append(sg.inputs, idx(name))
	}

	// Gather segment gates in a stable order.
	var segNodes []int
	for _, v := range nodes {
		segNodes = append(segNodes, v)
	}
	sort.Ints(segNodes)

	// DFFs first (their outputs are state sources).
	type pendingGate struct {
		gate *netlist.Gate
	}
	var pend []pendingGate
	for _, v := range segNodes {
		gt := c.Gate(g.Nodes[v].Name)
		if gt == nil {
			return nil, fmt.Errorf("sim: node %q not in circuit", g.Nodes[v].Name)
		}
		if gt.Type == netlist.DFF {
			out := idx(gt.Name)
			in := idx(gt.Fanin[0])
			sg.dffs = append(sg.dffs, dffInfo{out: out, in: in})
		} else {
			pend = append(pend, pendingGate{gate: gt})
		}
	}
	resolve := idx
	// Register every gate output and fanin once, so the dependency
	// bookkeeping below runs over dense signal-indexed slices instead of
	// name-keyed maps. Signals produced by no registered gate are implicit
	// externals (constant 0 unless driven), ready from the start; only
	// combinational internal outputs gate readiness. Indegree-worklist
	// Kahn emission keeps this linear in gates + edges (cf. Compile),
	// where the old repeated-rescan loop was quadratic on deep segments.
	outIdx := make([]int, len(pend))
	for pi, p := range pend {
		outIdx[pi] = resolve(p.gate.Name)
	}
	fanins := make([][]int, len(pend))
	for pi, p := range pend {
		fanin := make([]int, len(p.gate.Fanin))
		for i, f := range p.gate.Fanin {
			fanin[i] = resolve(f)
		}
		fanins[pi] = fanin
	}
	producer := make([]int32, len(sg.names)) // signal -> pending-gate index
	for i := range producer {
		producer[i] = -1
	}
	for pi, oi := range outIdx {
		producer[oi] = int32(pi)
	}
	indeg := make([]int, len(pend))
	consumers := make([][]int32, len(sg.names))
	for pi := range pend {
		for _, fi := range fanins[pi] {
			if producer[fi] >= 0 {
				indeg[pi]++
				consumers[fi] = append(consumers[fi], int32(pi))
			}
		}
	}
	queue := make([]int, 0, len(pend))
	for pi := range pend {
		if indeg[pi] == 0 {
			queue = append(queue, pi)
		}
	}
	ops := make([]gateOp, 0, len(pend))
	for len(queue) > 0 {
		pi := queue[0]
		queue = queue[1:]
		ops = append(ops, gateOp{typ: pend[pi].gate.Type, out: outIdx[pi], fanin: fanins[pi]})
		for _, ci := range consumers[outIdx[pi]] {
			indeg[ci]--
			if indeg[ci] == 0 {
				queue = append(queue, int(ci))
			}
		}
	}
	if len(ops) < len(pend) {
		for pi := range pend {
			if indeg[pi] > 0 {
				return nil, fmt.Errorf("sim: combinational cycle inside segment at %q", pend[pi].gate.Name)
			}
		}
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
				sg.OutputNames = append(sg.OutputNames, net.Name)
				sg.outputs = append(sg.outputs, resolve(net.Name))
			}
		}
	}
	sort.Strings(sg.OutputNames)
	sort.Ints(sg.outputs)

	sg.prog = compileProgram(ops, len(sg.names))
	sg.opOf = make([]int32, len(sg.names))
	for i := range sg.opOf {
		sg.opOf[i] = -1
	}
	for i, o := range sg.prog.ops {
		sg.opOf[o.out] = int32(i)
	}
	return sg, nil
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
