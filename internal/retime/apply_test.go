package retime

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func applyFixture(t *testing.T, text string) (*netlist.Circuit, *graph.G, *CombGraph) {
	t.Helper()
	c, err := netlist.ParseBenchString("app", text)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, Build(g)
}

func TestApplyIdentityPreservesBehaviour(t *testing.T) {
	c, g, cg := applyFixture(t, s27)
	rho := make([]int, len(cg.Vertices))
	rc, err := Apply(c, g, cg, rho)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumDFFs() != c.NumDFFs() {
		t.Fatalf("identity changed DFF count: %d -> %d", c.NumDFFs(), rc.NumDFFs())
	}
	// Cycle-accurate equivalence from all-zero reset.
	evA, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := sim.Compile(rc)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := evA.NewState(), evB.NewState()
	for cycle := 0; cycle < 64; cycle++ {
		for i := range c.Inputs {
			w := uint64(cycle*2654435761 + i*40503)
			evA.SetInput(sa, i, w)
			evB.SetInput(sb, i, w)
		}
		evA.EvalComb(sa)
		evB.EvalComb(sb)
		for i := range c.Outputs {
			if evA.Output(sa, i) != evB.Output(sb, i) {
				t.Fatalf("cycle %d output %d differs", cycle, i)
			}
		}
		evA.ClockDFFs(sa)
		evB.ClockDFFs(sb)
	}
}

const pipelineApply = `
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
r1 = DFF(n1)
n2 = NOR(r1, a)
r2 = DFF(n2)
y = NOT(r2)
`

func TestApplySolvedRetiming(t *testing.T) {
	c, g, cg := applyFixture(t, pipelineApply)
	cuts := map[int]bool{}
	for e := range g.Nets {
		if g.Nets[e].Name == "n2" || g.Nets[e].Name == "n1" {
			cuts[e] = true
		}
	}
	sol, err := Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Apply(c, g, cg, sol.Rho)
	if err != nil {
		t.Fatal(err)
	}
	// Every covered cut net must now have a register directly at the
	// driver: the driver's fanouts read tap >= 1 or the chain exists.
	for _, e := range sol.Covered {
		driver := g.Nets[e].Name
		if rc.Gate(driver+"__r1") == nil {
			t.Fatalf("cut net %s has no register after Apply", driver)
		}
	}
	// Feed-forward equivalence after the pipeline flushes: hold inputs
	// constant-random per cycle; with latency L = rho(sink)-rho(source)
	// the retimed outputs reproduce the original stream shifted by L.
	L := sol.Rho[cg.SinkV] - sol.Rho[cg.SourceV]
	if L < 0 {
		t.Fatalf("unexpected negative latency %d", L)
	}
	evA, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := sim.Compile(rc)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := evA.NewState(), evB.NewState()
	const cycles = 48
	var outA, outB []uint64
	for cycle := 0; cycle < cycles; cycle++ {
		for i := range c.Inputs {
			w := uint64(cycle)*11400714819323198485 + uint64(i)*2654435761
			evA.SetInput(sa, i, w)
			evB.SetInput(sb, i, w)
		}
		evA.EvalComb(sa)
		evB.EvalComb(sb)
		outA = append(outA, evA.Output(sa, 0))
		outB = append(outB, evB.Output(sb, 0))
		evA.ClockDFFs(sa)
		evB.ClockDFFs(sb)
	}
	// Compare after the deepest pipeline has flushed (depth <= L + original
	// register depth 2).
	for t0 := L + 4; t0 < cycles; t0++ {
		if outB[t0] != outA[t0-L] {
			t.Fatalf("cycle %d: retimed output does not match original shifted by %d", t0, L)
		}
	}
}

func TestApplyRejectsIllegal(t *testing.T) {
	c, g, cg := applyFixture(t, s27)
	bad := make([]int, len(cg.Vertices))
	for _, e := range cg.Edges {
		if e.W == 0 && e.From != e.To && !cg.Vertices[e.From].Host {
			bad[e.From] = 1
			if e.W+bad[e.To]-bad[e.From] < 0 {
				if _, err := Apply(c, g, cg, bad); err == nil {
					t.Fatal("illegal rho accepted")
				}
				return
			}
			bad[e.From] = 0
		}
	}
	t.Skip("no suitable edge")
}

func TestApplyS27NontrivialRho(t *testing.T) {
	// Move every comb vertex by the same lag: behaviour must be preserved
	// exactly (uniform shifts are the identity on internal edges, only the
	// host boundary shifts).
	c, g, cg := applyFixture(t, s27)
	rho := make([]int, len(cg.Vertices))
	for _, v := range cg.Vertices {
		if !v.Host {
			rho[v.ID] = 1
		}
	}
	rho[cg.SinkV] = 1
	// Host source stays 0: inputs gain one register each (peripheral
	// pipelining); legality requires w + rho(to) - rho(from) >= 0, which
	// holds since only host-source edges change (+1).
	if err := cg.CheckLegal(rho); err != nil {
		t.Skipf("uniform lag illegal here: %v", err)
	}
	rc, err := Apply(c, g, cg, rho)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumDFFs() <= c.NumDFFs() {
		t.Fatalf("peripheral pipelining added no registers: %d -> %d", c.NumDFFs(), rc.NumDFFs())
	}
	if err := rc.Validate(); err != nil {
		t.Fatal(err)
	}
}
