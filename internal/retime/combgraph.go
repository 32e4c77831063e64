// Package retime implements legal retiming for PPET (paper section 2.2,
// after Leiserson & Saxe): the combinational retiming graph with register
// edge weights, a difference-constraint solver that finds retiming labels
// placing registers on cut nets, feasibility detection per Corollaries 2-3
// (the covered/demoted split that prices the paper's Table 12), and the
// coarse per-SCC register count the solver ablation compares against.
package retime

import (
	"fmt"

	"repro/internal/graph"
)

// Vertex is a node of the retiming graph: a combinational cell, or one of
// the two host pseudo-vertices. Registers are not vertices here; they are
// edge weights, per the classic Leiserson-Saxe formulation.
type Vertex struct {
	ID     int
	NodeID int // graph.G node id; -1 for host vertices
	Host   bool
}

// Edge is a register-weighted connection between two retiming vertices. It
// remembers the chain of circuit nets its path traverses, so Solve can
// count the cut nets on it (a register can sit on any net of the path).
type Edge struct {
	ID       int
	From, To int   // vertex IDs
	W        int   // registers currently on the path (f in the paper)
	PathNets []int // net IDs along the path, in signal-flow order
}

// CombGraph is the retiming graph.
type CombGraph struct {
	G        *graph.G
	Vertices []Vertex
	Edges    []Edge
	// SourceV/SinkV are the host vertices collecting primary inputs and
	// outputs. There is deliberately no host back-edge: PPET allows adding
	// peripheral pipeline registers freely (paper: "additional registers
	// can be added arbitrarily ... based on Eq. (1)"), so only real circuit
	// cycles constrain the retiming.
	SourceV, SinkV int
	// VertexOf maps a comb cell node id to its vertex id.
	VertexOf map[int]int
	// PureRegCycles counts register-only cycles skipped during extraction
	// (degenerate netlists only).
	PureRegCycles int

	outEdges [][]int
}

// Build extracts the retiming graph from a circuit graph: one vertex per
// combinational cell plus host source/sink; every maximal register chain
// between combinational endpoints becomes an edge of weight = chain length.
func Build(g *graph.G) *CombGraph {
	cg := &CombGraph{G: g, VertexOf: make(map[int]int)}
	for _, n := range g.Nodes {
		if n.Kind == graph.KindComb {
			id := len(cg.Vertices)
			cg.Vertices = append(cg.Vertices, Vertex{ID: id, NodeID: n.ID})
			cg.VertexOf[n.ID] = id
		}
	}
	cg.SourceV = len(cg.Vertices)
	cg.Vertices = append(cg.Vertices, Vertex{ID: cg.SourceV, NodeID: -1, Host: true})
	cg.SinkV = len(cg.Vertices)
	cg.Vertices = append(cg.Vertices, Vertex{ID: cg.SinkV, NodeID: -1, Host: true})

	// Walk from every comb cell and every PI through register chains.
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.KindComb:
			cg.walkFrom(cg.VertexOf[n.ID], n.ID)
		case graph.KindPI:
			cg.walkFrom(cg.SourceV, n.ID)
		}
	}
	cg.outEdges = make([][]int, len(cg.Vertices))
	for _, e := range cg.Edges {
		cg.outEdges[e.From] = append(cg.outEdges[e.From], e.ID)
	}
	return cg
}

// walkFrom expands the fanout of startNode, passing through register nodes
// (each adds weight 1) until reaching combinational cells or primary
// outputs, emitting one edge per reached endpoint.
func (cg *CombGraph) walkFrom(fromVertex, startNode int) {
	g := cg.G
	type item struct {
		node    int
		w       int
		path    []int
		visited map[int]bool // registers seen on this walk branch
	}
	stack := []item{{node: startNode, w: 0, visited: nil}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out[it.node] {
			path := append(append([]int(nil), it.path...), e)
			for _, s := range g.Nets[e].Sinks {
				switch g.Nodes[s].Kind {
				case graph.KindComb:
					cg.addEdge(fromVertex, cg.VertexOf[s], it.w, path)
				case graph.KindPO:
					cg.addEdge(fromVertex, cg.SinkV, it.w, path)
				case graph.KindReg:
					if it.visited != nil && it.visited[s] {
						cg.PureRegCycles++
						continue
					}
					vis := make(map[int]bool, len(it.visited)+1)
					for k := range it.visited {
						vis[k] = true
					}
					vis[s] = true
					stack = append(stack, item{node: s, w: it.w + 1, path: path, visited: vis})
				}
			}
		}
	}
}

func (cg *CombGraph) addEdge(from, to, w int, path []int) {
	id := len(cg.Edges)
	cg.Edges = append(cg.Edges, Edge{ID: id, From: from, To: to, W: w, PathNets: path})
}

// TotalRegisters returns the sum of edge weights. Because register fanout
// duplicates a physical register onto several edges, this can exceed the
// physical DFF count; it is a per-edge model quantity (see DESIGN.md §4.5).
func (cg *CombGraph) TotalRegisters() int {
	t := 0
	for _, e := range cg.Edges {
		t += e.W
	}
	return t
}

// CheckLegal verifies a retiming labelling rho (indexed by vertex ID)
// against Corollary 3: every retimed edge weight must be nonnegative, i.e.
// w(e) + rho(to) - rho(from) >= 0. It returns the first violation, if any.
func (cg *CombGraph) CheckLegal(rho []int) error {
	if len(rho) != len(cg.Vertices) {
		return fmt.Errorf("retime: rho has %d labels, want %d", len(rho), len(cg.Vertices))
	}
	for _, e := range cg.Edges {
		if e.W+rho[e.To]-rho[e.From] < 0 {
			return fmt.Errorf("retime: edge %d (%d->%d) retimed weight %d < 0",
				e.ID, e.From, e.To, e.W+rho[e.To]-rho[e.From])
		}
	}
	return nil
}

// RetimedWeight returns w_rho(e) for edge id under labelling rho.
func (cg *CombGraph) RetimedWeight(rho []int, id int) int {
	e := &cg.Edges[id]
	return e.W + rho[e.To] - rho[e.From]
}
