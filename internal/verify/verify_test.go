package verify

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/retime"
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

// pipeline has only feed-forward registers: retiming is unconstrained.
const pipeline = `
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
r1 = DFF(n1)
n2 = NOR(r1, a)
r2 = DFF(n2)
y = NOT(r2)
`

func fixture(t *testing.T, text string) (*netlist.Circuit, *graph.G, *retime.CombGraph) {
	t.Helper()
	c, err := netlist.ParseBenchString("v", text)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, retime.Build(g)
}

func TestTriEvalGate(t *testing.T) {
	cases := []struct {
		gt   netlist.GateType
		ins  []Tri
		want Tri
	}{
		{netlist.And, []Tri{T, T}, T},
		{netlist.And, []Tri{F, X}, F},
		{netlist.And, []Tri{T, X}, X},
		{netlist.Nand, []Tri{F, X}, T},
		{netlist.Or, []Tri{T, X}, T},
		{netlist.Or, []Tri{F, X}, X},
		{netlist.Nor, []Tri{F, F}, T},
		{netlist.Xor, []Tri{T, F}, T},
		{netlist.Xor, []Tri{T, X}, X},
		{netlist.Xnor, []Tri{T, T}, T},
		{netlist.Not, []Tri{X}, X},
		{netlist.Not, []Tri{F}, T},
		{netlist.Buf, []Tri{T}, T},
	}
	for _, tc := range cases {
		if got := EvalGate(tc.gt, tc.ins); got != tc.want {
			t.Errorf("%v%v = %v, want %v", tc.gt, tc.ins, got, tc.want)
		}
	}
	if F.Not() != T || T.Not() != F || X.Not() != X {
		t.Fatal("Not broken")
	}
	if F.String() != "0" || T.String() != "1" || X.String() != "X" {
		t.Fatal("String broken")
	}
}

func TestIdentityRetimingEquivalent(t *testing.T) {
	c, g, cg := fixture(t, s27)
	rho := make([]int, len(cg.Vertices))
	rep, err := Check(c, g, cg, rho, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("identity retiming mismatches: %+v", rep)
	}
	if rep.Compared == 0 {
		t.Fatal("nothing compared")
	}
	if !rep.ExactInit || rep.LatencyShift != 0 || rep.Unknown != 0 {
		t.Fatalf("identity should be exact: %+v", rep)
	}
}

func TestSolvedRetimingEquivalentS27(t *testing.T) {
	c, g, cg := fixture(t, s27)
	// Request registers on a couple of internal nets and verify the
	// resulting retiming behaves identically.
	cuts := map[int]bool{}
	for e := range g.Nets {
		switch g.Nets[e].Name {
		case "G8", "G15":
			cuts[e] = true
		}
	}
	sol, err := retime.Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(c, g, cg, sol.Rho, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("solved retiming mismatches: %+v (covered %v demoted %v)", rep, sol.Covered, sol.Demoted)
	}
	if rep.Compared == 0 {
		t.Fatal("nothing compared — all outputs unknown")
	}
}

func TestPipelineRetimingEquivalent(t *testing.T) {
	c, g, cg := fixture(t, pipeline)
	cuts := map[int]bool{}
	for e := range g.Nets {
		if g.Nets[e].Name == "n2" {
			cuts[e] = true
		}
	}
	sol, err := retime.Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Demoted) != 0 {
		t.Fatalf("feed-forward cut demoted: %+v", sol)
	}
	rep, err := Check(c, g, cg, sol.Rho, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("pipeline retiming mismatches: %+v", rep)
	}
}

func TestInitialStateIdentity(t *testing.T) {
	c, g, cg := fixture(t, s27)
	rho := make([]int, len(cg.Vertices))
	init, exact, err := InitialState(c, g, cg, rho, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("identity init not exact")
	}
	for e := range cg.Edges {
		if len(init[e]) != cg.Edges[e].W {
			t.Fatalf("edge %d init length %d, want %d", e, len(init[e]), cg.Edges[e].W)
		}
		for _, v := range init[e] {
			if v != F {
				t.Fatalf("identity init changed a register value")
			}
		}
	}
}

func TestInitialStateRejectsIllegal(t *testing.T) {
	c, g, cg := fixture(t, s27)
	bad := make([]int, len(cg.Vertices))
	// Force some edge negative: find a zero-weight edge u->v and set
	// rho(u)=1.
	for _, e := range cg.Edges {
		if e.W == 0 && e.From != e.To {
			bad[e.From] = 1
			if e.W+bad[e.To]-bad[e.From] < 0 {
				if _, _, err := InitialState(c, g, cg, bad, nil); err == nil {
					t.Fatal("illegal rho accepted")
				}
				return
			}
			bad[e.From] = 0
		}
	}
	t.Skip("no suitable edge")
}

// Property: random small legal retimings of the pipeline circuit are always
// I/O-equivalent under Check.
func TestRandomRetimingsEquivalent(t *testing.T) {
	c, g, cg := fixture(t, pipeline)
	f := func(seedRaw uint8) bool {
		// Derive a legal rho by solving with a random cut subset.
		cuts := map[int]bool{}
		for e := range g.Nets {
			name := g.Nets[e].Name
			if (seedRaw&1 != 0 && name == "n1") ||
				(seedRaw&2 != 0 && name == "n2") ||
				(seedRaw&4 != 0 && name == "r1") {
				cuts[e] = true
			}
		}
		sol, err := retime.Solve(context.Background(), cg, cuts, nil)
		if err != nil {
			return false
		}
		rep, err := Check(c, g, cg, sol.Rho, 48, int64(seedRaw))
		if err != nil {
			return false
		}
		return rep.Mismatches == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCompile(t *testing.T) {
	c, g, _ := fixture(t, s27)
	cuts := map[int]bool{}
	for e := range g.Nets {
		if g.Nets[e].Name == "G9" {
			cuts[e] = true
		}
	}
	rep, sol, err := CheckCompile(context.Background(), c, g, cuts, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("mismatches: %+v", rep)
	}
	if len(sol.Covered)+len(sol.Demoted) != 1 {
		t.Fatalf("solution: %+v", sol)
	}
}

func TestMachineRejectsBadWeights(t *testing.T) {
	c, g, cg := fixture(t, s27)
	if _, err := NewMachine(c, g, cg, []int{1}, nil); err == nil {
		t.Fatal("short weights accepted")
	}
	w := make([]int, len(cg.Edges))
	w[0] = -1
	if _, err := NewMachine(c, g, cg, w, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// The retiming the compiler ships for s1423 at l_k = 16 moves the host
// source (rho(source) != 0), so Check must start the retimed machine in the
// state the original reaches LatencyShift cycles after reset: no defined
// output bit may differ.
func TestCheckCompiledS1423(t *testing.T) {
	c, err := bench89.Load("s1423")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(c, r.Graph, r.CombGraph, r.Retiming.Rho, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 || rep.Compared == 0 {
		t.Fatalf("compiled s1423 @ 16: %+v", rep)
	}
}

// One seed gives one report: the stimulus does not depend on map order.
func TestCheckReproducible(t *testing.T) {
	c, g, cg := fixture(t, s27)
	cuts := map[int]bool{}
	for e := range g.Nets {
		switch g.Nets[e].Name {
		case "G8", "G15":
			cuts[e] = true
		}
	}
	sol, err := retime.Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Check(c, g, cg, sol.Rho, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		rep, err := Check(c, g, cg, sol.Rho, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		if *rep != *first {
			t.Fatalf("seed 7: report %+v, first run %+v", rep, first)
		}
	}
}
