package retime

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/netlist"
)

const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func s27CombGraph(t *testing.T) (*graph.G, *CombGraph) {
	t.Helper()
	c, err := netlist.ParseBenchString("s27", s27)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return g, Build(g)
}

func TestBuildCombGraph(t *testing.T) {
	g, cg := s27CombGraph(t)
	// 10 combinational cells + 2 host vertices.
	comb := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.KindComb {
			comb++
		}
	}
	if len(cg.Vertices) != comb+2 {
		t.Fatalf("vertices = %d, want %d", len(cg.Vertices), comb+2)
	}
	if cg.PureRegCycles != 0 {
		t.Fatalf("unexpected pure register cycles: %d", cg.PureRegCycles)
	}
	// Every edge weight counts registers on its path.
	for _, e := range cg.Edges {
		if e.W < 0 {
			t.Fatalf("edge %d negative weight", e.ID)
		}
		regs := 0
		for _, net := range e.PathNets {
			src := g.Nets[net].Source
			if g.Nodes[src].Kind == graph.KindReg {
				regs++
			}
		}
		if regs != e.W {
			t.Fatalf("edge %d: weight %d but %d register-driven path nets", e.ID, e.W, regs)
		}
	}
}

func TestCheckLegal(t *testing.T) {
	_, cg := s27CombGraph(t)
	zero := make([]int, len(cg.Vertices))
	if err := cg.CheckLegal(zero); err != nil {
		t.Fatalf("identity retiming illegal: %v", err)
	}
	if err := cg.CheckLegal(zero[:1]); err == nil {
		t.Fatal("short rho accepted")
	}
	// A label that forces some edge negative must be caught.
	bad := make([]int, len(cg.Vertices))
	for _, e := range cg.Edges {
		if e.W == 0 && e.From != e.To {
			bad[e.To] = -1
			// ensure bad is actually illegal for this edge
			if e.W+bad[e.To]-bad[e.From] >= 0 {
				continue
			}
			if err := cg.CheckLegal(bad); err == nil {
				t.Fatal("illegal retiming accepted")
			}
			return
		}
	}
	t.Skip("no zero-weight edge to perturb")
}

func TestSolveNoRequirements(t *testing.T) {
	_, cg := s27CombGraph(t)
	sol, err := Solve(context.Background(), cg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.CheckLegal(sol.Rho); err != nil {
		t.Fatalf("solution illegal: %v", err)
	}
	if len(sol.Demoted) != 0 {
		t.Fatalf("demotions with no requirements: %v", sol.Demoted)
	}
}

// chainGraph builds a synthetic comb graph: v0 -> v1 -> ... -> v{k} with
// given weights, optionally closing a cycle back to v0.
func chainGraph(weights []int, cycle bool) *CombGraph {
	cg := &CombGraph{VertexOf: map[int]int{}}
	n := len(weights)
	k := n
	if !cycle {
		k = n + 1
	}
	for i := 0; i < k; i++ {
		cg.Vertices = append(cg.Vertices, Vertex{ID: i, NodeID: i})
	}
	for i, w := range weights {
		to := i + 1
		if cycle && to == n {
			to = 0
		}
		cg.Edges = append(cg.Edges, Edge{ID: i, From: i, To: to, W: w, PathNets: []int{i}})
	}
	cg.SourceV, cg.SinkV = -1, -1
	return cg
}

func TestSolveFeasibleCycle(t *testing.T) {
	// Cycle with 3 registers, 3 cut nets: one register per cut, feasible.
	cg := chainGraph([]int{1, 1, 1}, true)
	cuts := map[int]bool{0: true, 1: true, 2: true}
	sol, err := Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Demoted) != 0 {
		t.Fatalf("feasible cycle demoted cuts: %v", sol.Demoted)
	}
	for i, e := range cg.Edges {
		req := 0
		for _, net := range e.PathNets {
			if cuts[net] {
				req++
			}
		}
		if w := cg.RetimedWeight(sol.Rho, i); w < req {
			t.Fatalf("edge %d retimed weight %d < req %d", i, w, req)
		}
	}
}

func TestSolveInfeasibleCycleDemotes(t *testing.T) {
	// Cycle carrying 1 register but 3 cut nets: Corollary 2 allows only one
	// register on the cycle, so exactly 2 cuts must be demoted.
	cg := chainGraph([]int{1, 0, 0}, true)
	cuts := map[int]bool{0: true, 1: true, 2: true}
	sol, err := Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Demoted) != 2 {
		t.Fatalf("demoted %d, want 2 (covered %v)", len(sol.Demoted), sol.Covered)
	}
	if err := cg.CheckLegal(sol.Rho); err != nil {
		t.Fatalf("solution illegal: %v", err)
	}
}

func TestSolvePriorityOrder(t *testing.T) {
	// Same infeasible cycle; the lowest-priority cuts must be demoted.
	cg := chainGraph([]int{1, 0, 0}, true)
	cuts := map[int]bool{0: true, 1: true, 2: true}
	pri := map[int]float64{0: 10, 1: 1, 2: 2}
	sol, err := Solve(context.Background(), cg, cuts, pri)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range sol.Demoted {
		if net == 0 {
			t.Fatalf("highest-priority cut demoted: %v", sol.Demoted)
		}
	}
	if len(sol.Covered) != 1 || sol.Covered[0] != 0 {
		t.Fatalf("covered = %v, want [0]", sol.Covered)
	}
}

func TestSolveAcyclicAlwaysCoverable(t *testing.T) {
	// Open chain with zero registers: requirements are always satisfiable
	// by peripheral retiming (Lemma 1 with a free boundary).
	cg := chainGraph([]int{0, 0, 0}, false)
	cuts := map[int]bool{0: true, 1: true, 2: true}
	sol, err := Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Demoted) != 0 {
		t.Fatalf("acyclic requirements demoted: %v", sol.Demoted)
	}
	for i := range cg.Edges {
		if w := cg.RetimedWeight(sol.Rho, i); w < 1 {
			t.Fatalf("edge %d retimed weight %d < 1", i, w)
		}
	}
}

// Property (Corollary 2): any retiming produced by Solve preserves the
// register count of every cycle in random strongly-cyclic graphs.
func TestSolveCyclePreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		cg := &CombGraph{VertexOf: map[int]int{}}
		for i := 0; i < n; i++ {
			cg.Vertices = append(cg.Vertices, Vertex{ID: i, NodeID: i})
		}
		// Ring plus chords, random weights 0..2.
		for i := 0; i < n; i++ {
			cg.Edges = append(cg.Edges, Edge{ID: i, From: i, To: (i + 1) % n, W: rng.Intn(3), PathNets: []int{i}})
		}
		extra := rng.Intn(2 * n)
		for j := 0; j < extra; j++ {
			id := len(cg.Edges)
			cg.Edges = append(cg.Edges, Edge{ID: id, From: rng.Intn(n), To: rng.Intn(n), W: rng.Intn(3), PathNets: []int{id}})
		}
		cuts := map[int]bool{}
		for i := range cg.Edges {
			if rng.Intn(3) == 0 {
				cuts[i] = true
			}
		}
		sol, err := Solve(context.Background(), cg, cuts, nil)
		if err != nil {
			// Only acceptable failure: a register-free cycle with no
			// demotable requirement cannot occur since cuts are demotable.
			return false
		}
		if cg.CheckLegal(sol.Rho) != nil {
			return false
		}
		// Cycle preservation: the ring's total weight must be unchanged.
		sum, sumR := 0, 0
		for i := 0; i < n; i++ {
			sum += cg.Edges[i].W
			sumR += cg.RetimedWeight(sol.Rho, i)
		}
		if sum != sumR {
			return false
		}
		// Covered cut nets must have a register on every edge holding them.
		covered := map[int]bool{}
		for _, c := range sol.Covered {
			covered[c] = true
		}
		for i := range cg.Edges {
			need := 0
			for _, net := range cg.Edges[i].PathNets {
				if covered[net] {
					need++
				}
			}
			if cg.RetimedWeight(sol.Rho, i) < need {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageBySCC(t *testing.T) {
	cov, exc := CoverageBySCC(map[int]int{1: 5, 2: 3}, map[int]int{1: 2, 2: 7}, 4)
	// comp 1: 2 covered 3 excess; comp 2: 3 covered; off-SCC 4 covered.
	if cov != 9 || exc != 3 {
		t.Fatalf("cov=%d exc=%d, want 9,3", cov, exc)
	}
}

func TestSolveNilGraph(t *testing.T) {
	if _, err := Solve(context.Background(), nil, nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestTotalRegisters(t *testing.T) {
	cg := chainGraph([]int{1, 2, 3}, false)
	if cg.TotalRegisters() != 6 {
		t.Fatalf("total = %d", cg.TotalRegisters())
	}
}
