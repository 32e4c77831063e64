// Package graph provides the directed multi-pin circuit graph of the paper's
// section 2.1: nodes are registers and combinational components (plus
// primary-input and primary-output pseudo-nodes), and each net is a single
// directed edge whose branches fan out from the source to every sink.
// It also provides iterative Tarjan strongly-connected components and the
// reachability primitives the partitioner and retimer build on.
package graph

import (
	"fmt"

	"repro/internal/netlist"
)

// NodeKind classifies graph nodes.
type NodeKind int

const (
	// KindComb is a combinational cell.
	KindComb NodeKind = iota
	// KindReg is a D flip-flop.
	KindReg
	// KindPI is a primary-input pseudo-node (source only).
	KindPI
	// KindPO is a primary-output pseudo-node (sink only).
	KindPO
)

func (k NodeKind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindReg:
		return "reg"
	case KindPI:
		return "pi"
	case KindPO:
		return "po"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is one vertex of the multi-pin graph.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	// Gate is the gate type for comb/reg nodes; netlist.Invalid otherwise.
	Gate netlist.GateType
	// Area is the node's cell area in paper units (0 for pseudo-nodes).
	Area float64
}

// Net is one multi-pin edge: a single source and one branch per sink.
// Sinks may repeat a node if the node reads the signal on several pins.
type Net struct {
	ID     int
	Name   string // the driven signal name
	Source int    // node ID
	Sinks  []int  // node IDs
}

// G is the circuit graph.
type G struct {
	Nodes []Node
	Nets  []Net

	// Out[v] lists net IDs sourced at node v; In[v] lists net IDs with a
	// sink branch at node v (each net at most once per node).
	Out [][]int
	In  [][]int

	byName map[string]int // node name -> id
	cell   []bool         // node id -> IsCell, filled with the incidence lists
}

// NumNodes returns the vertex count including pseudo-nodes.
func (g *G) NumNodes() int { return len(g.Nodes) }

// NumNets returns the net count.
func (g *G) NumNets() int { return len(g.Nets) }

// NodeByName returns the node ID for a signal/cell name and whether it
// exists.
func (g *G) NodeByName(name string) (int, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// IsCell reports whether node v is a real cell (comb or reg), i.e. belongs
// to a partition per the paper's Figure 7.
func (g *G) IsCell(v int) bool { return g.cell[v] }

// CellIDs returns the IDs of all real cells in ascending order.
func (g *G) CellIDs() []int {
	out := make([]int, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) {
			out = append(out, n.ID)
		}
	}
	return out
}

// FromCircuit builds the multi-pin graph of a validated circuit. One node
// per gate (combinational or DFF), one PI pseudo-node per primary input and
// one PO pseudo-node per primary output; one net per driven signal.
func FromCircuit(c *netlist.Circuit) (*G, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := &G{byName: make(map[string]int)}
	addNode := func(name string, kind NodeKind, gt netlist.GateType, area float64) int {
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: id, Name: name, Kind: kind, Gate: gt, Area: area})
		g.byName[name] = id
		return id
	}
	for _, in := range c.Inputs {
		addNode(in, KindPI, netlist.Invalid, 0)
	}
	for _, gt := range c.Gates {
		kind := KindComb
		if gt.Type == netlist.DFF {
			kind = KindReg
		}
		addNode(gt.Name, kind, gt.Type, netlist.GateArea(gt.Type, len(gt.Fanin)))
	}
	poIDs := make([]int, len(c.Outputs))
	for i, out := range c.Outputs {
		poIDs[i] = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: poIDs[i], Name: "PO:" + out, Kind: KindPO})
	}

	// Collect sinks per driving signal.
	sinks := make(map[string][]int)
	for _, gt := range c.Gates {
		dst := g.byName[gt.Name]
		for _, in := range gt.Fanin {
			sinks[in] = append(sinks[in], dst)
		}
	}
	for i, out := range c.Outputs {
		sinks[out] = append(sinks[out], poIDs[i])
	}

	addNet := func(signal string, src int) {
		ss := sinks[signal]
		if len(ss) == 0 {
			return // dangling output, legal but netless
		}
		id := len(g.Nets)
		g.Nets = append(g.Nets, Net{ID: id, Name: signal, Source: src, Sinks: append([]int(nil), ss...)})
	}
	for _, in := range c.Inputs {
		addNet(in, g.byName[in])
	}
	for _, gt := range c.Gates {
		addNet(gt.Name, g.byName[gt.Name])
	}
	g.buildIncidence()
	return g, nil
}

// Assemble reconstructs a graph from its serialized Nodes and Nets (a
// decoded cache entry): the name index and incidence lists are derived
// state, rebuilt here exactly as FromCircuit builds them. PO pseudo-nodes
// are not registered in the name index, matching FromCircuit. The slices
// are retained, not copied; the caller must not mutate them afterwards.
func Assemble(nodes []Node, nets []Net) *G {
	g := &G{Nodes: nodes, Nets: nets, byName: make(map[string]int, len(nodes))}
	for _, n := range nodes {
		if n.Kind != KindPO {
			g.byName[n.Name] = n.ID
		}
	}
	g.buildIncidence()
	return g
}

func (g *G) buildIncidence() {
	g.Out = make([][]int, len(g.Nodes))
	g.In = make([][]int, len(g.Nodes))
	g.cell = make([]bool, len(g.Nodes))
	for v, n := range g.Nodes {
		g.cell[v] = n.Kind == KindComb || n.Kind == KindReg
	}
	// seen[s] holds net ID + 1 once s has the net in In[s], so one stamp
	// slice dedupes every net's sinks.
	seen := make([]int, len(g.Nodes))
	for _, net := range g.Nets {
		g.Out[net.Source] = append(g.Out[net.Source], net.ID)
		for _, s := range net.Sinks {
			if seen[s] != net.ID+1 {
				seen[s] = net.ID + 1
				g.In[s] = append(g.In[s], net.ID)
			}
		}
	}
}

// Successors appends to buf the distinct successor node IDs of v and returns
// it. A successor is any sink of any net sourced at v.
func (g *G) Successors(v int, buf []int) []int {
	buf = buf[:0]
	seen := map[int]bool{}
	for _, e := range g.Out[v] {
		for _, s := range g.Nets[e].Sinks {
			if !seen[s] {
				seen[s] = true
				buf = append(buf, s)
			}
		}
	}
	return buf
}

// NetString renders a net for debugging: "name: src -> [sinks]".
func (g *G) NetString(e int) string {
	n := g.Nets[e]
	names := make([]string, len(n.Sinks))
	for i, s := range n.Sinks {
		names[i] = g.Nodes[s].Name
	}
	return fmt.Sprintf("%s: %s -> %v", n.Name, g.Nodes[n.Source].Name, names)
}
