package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/retime"
)

// Machine simulates a register-edge view of a synchronous circuit: the
// combinational vertices of a retime.CombGraph with an arbitrary register
// count per edge (the original circuit is the special case weights=w; a
// retimed circuit uses w_rho). Register values are three-valued.
type Machine struct {
	cg *retime.CombGraph

	gateOf  []netlist.GateType // per vertex; Invalid for hosts
	pinEdge [][]int            // per vertex: in-edge id per gate pin

	// regs[e] holds edge e's register values ordered tail (From side)
	// to head (To side); the head value is what the To vertex reads.
	regs [][]Tri

	// inputEdge[e] = PI net id for edges sourced at the host input vertex.
	inputNetOf map[int]int
	// outputEdges lists the edges into the host sink in ascending order;
	// each samples its last path net.
	outputEdges []int

	topo []int // comb vertices in zero-register-edge topological order

	vals []Tri // per-vertex scratch
}

// NewMachine builds a machine over cg with the given per-edge register
// counts and initial values. init may be nil (all registers X) or must
// match weights in shape.
func NewMachine(c *netlist.Circuit, g *graph.G, cg *retime.CombGraph, weights []int, init [][]Tri) (*Machine, error) {
	if len(weights) != len(cg.Edges) {
		return nil, fmt.Errorf("verify: %d weights for %d edges", len(weights), len(cg.Edges))
	}
	m := &Machine{
		cg:         cg,
		gateOf:     make([]netlist.GateType, len(cg.Vertices)),
		pinEdge:    make([][]int, len(cg.Vertices)),
		regs:       make([][]Tri, len(cg.Edges)),
		inputNetOf: make(map[int]int),
		vals:       make([]Tri, len(cg.Vertices)),
	}
	for e := range cg.Edges {
		if weights[e] < 0 {
			return nil, fmt.Errorf("verify: edge %d has negative weight", e)
		}
		m.regs[e] = make([]Tri, weights[e])
		for i := range m.regs[e] {
			m.regs[e][i] = X
			if init != nil && e < len(init) && i < len(init[e]) {
				m.regs[e][i] = init[e][i]
			}
		}
	}

	// Classify boundary edges.
	for e := range cg.Edges {
		ed := &cg.Edges[e]
		if ed.From == cg.SourceV {
			m.inputNetOf[e] = ed.PathNets[0]
		}
		if ed.To == cg.SinkV {
			m.outputEdges = append(m.outputEdges, e)
		}
	}

	// Wire gate pins to in-edges by the driven signal name.
	inEdges := make([][]int, len(cg.Vertices))
	for e := range cg.Edges {
		inEdges[cg.Edges[e].To] = append(inEdges[cg.Edges[e].To], e)
	}
	for _, v := range cg.Vertices {
		if v.Host {
			continue
		}
		name := g.Nodes[v.NodeID].Name
		gt := c.Gate(name)
		if gt == nil {
			return nil, fmt.Errorf("verify: vertex %q has no gate", name)
		}
		m.gateOf[v.ID] = gt.Type
		used := make([]bool, len(inEdges[v.ID]))
		pins := make([]int, len(gt.Fanin))
		for pi, sig := range gt.Fanin {
			found := -1
			for j, e := range inEdges[v.ID] {
				if used[j] {
					continue
				}
				path := cg.Edges[e].PathNets
				if g.Nets[path[len(path)-1]].Name == sig {
					found = e
					used[j] = true
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("verify: gate %q pin %q has no matching edge", name, sig)
			}
			pins[pi] = found
		}
		m.pinEdge[v.ID] = pins
	}

	if err := m.buildTopo(weights); err != nil {
		return nil, err
	}
	return m, nil
}

// buildTopo orders comb vertices so every zero-register in-edge's source is
// evaluated first. Registered edges break the dependency.
func (m *Machine) buildTopo(weights []int) error {
	n := len(m.cg.Vertices)
	indeg := make([]int, n)
	dep := make([][]int, n)
	for e := range m.cg.Edges {
		ed := &m.cg.Edges[e]
		if weights[e] == 0 && !m.cg.Vertices[ed.To].Host && !m.cg.Vertices[ed.From].Host {
			indeg[ed.To]++
			dep[ed.From] = append(dep[ed.From], ed.To)
		}
	}
	var queue []int
	for _, v := range m.cg.Vertices {
		if !v.Host && indeg[v.ID] == 0 {
			queue = append(queue, v.ID)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		m.topo = append(m.topo, v)
		seen++
		for _, w := range dep[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	comb := 0
	for _, v := range m.cg.Vertices {
		if !v.Host {
			comb++
		}
	}
	if seen != comb {
		return fmt.Errorf("verify: register-free cycle in the machine (illegal weights)")
	}
	return nil
}

// edgeValue returns what the To end of edge e sees this cycle, given the
// current vertex values and per-cycle inputs.
func (m *Machine) edgeValue(e int, inputs map[int]Tri) Tri {
	if len(m.regs[e]) > 0 {
		return m.regs[e][len(m.regs[e])-1]
	}
	return m.tailValue(e, inputs)
}

// tailValue is the value entering edge e at its From end.
func (m *Machine) tailValue(e int, inputs map[int]Tri) Tri {
	ed := &m.cg.Edges[e]
	if net, ok := m.inputNetOf[e]; ok {
		if v, ok := inputs[net]; ok {
			return v
		}
		return X
	}
	return m.vals[ed.From]
}

// Cycle advances one clock: evaluate all combinational vertices with the
// given primary-input values (keyed by PI net id), sample the outputs
// (keyed by the PO-driving net id), then shift every edge's registers.
func (m *Machine) Cycle(inputs map[int]Tri) map[int]Tri {
	for _, v := range m.topo {
		pins := m.pinEdge[v]
		ins := make([]Tri, len(pins))
		for i, e := range pins {
			ins[i] = m.edgeValue(e, inputs)
		}
		m.vals[v] = EvalGate(m.gateOf[v], ins)
	}
	outs := make(map[int]Tri, len(m.outputEdges))
	for _, e := range m.outputEdges {
		pn := m.cg.Edges[e].PathNets
		outs[pn[len(pn)-1]] = m.edgeValue(e, inputs)
	}
	// Shift registers toward the head; the tail loads the driver value.
	for e := range m.regs {
		r := m.regs[e]
		if len(r) == 0 {
			continue
		}
		copy(r[1:], r[:len(r)-1])
		r[0] = m.tailValue(e, inputs)
	}
	return outs
}

// Regs exposes (a copy of) edge e's register values, head last.
func (m *Machine) Regs(e int) []Tri {
	return append([]Tri(nil), m.regs[e]...)
}
