package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench89"
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

// segmentFixture compiles a whole circuit as a single segment (every cell,
// all PI nets as inputs).
func segmentFixture(t *testing.T, text string) (*netlist.Circuit, *graph.G, *Segment) {
	t.Helper()
	c, err := netlist.ParseBenchString("seg", text)
	if err != nil {
		t.Fatal(err)
	}
	g, sg := wholeSegment(t, c)
	return c, g, sg
}

// twinSegment is the whole of the bench89 s641 twin as one segment: unlike
// s27 it has 3-input gates, and 19 flip-flops.
func twinSegment(tb testing.TB) *Segment {
	tb.Helper()
	c, err := bench89.Load("s641")
	if err != nil {
		tb.Fatal(err)
	}
	_, sg := wholeSegment(tb, c)
	return sg
}

func wholeSegment(tb testing.TB, c *netlist.Circuit) (*graph.G, *Segment) {
	tb.Helper()
	g, err := graph.FromCircuit(c)
	if err != nil {
		tb.Fatal(err)
	}
	var nodes, inputNets []int
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) {
			nodes = append(nodes, n.ID)
		}
	}
	for e := range g.Nets {
		if g.Nodes[g.Nets[e].Source].Kind == graph.KindPI {
			inputNets = append(inputNets, e)
		}
	}
	sg, err := BuildSegment(c, g, nodes, inputNets)
	if err != nil {
		tb.Fatal(err)
	}
	return g, sg
}

func TestBuildSegmentS27(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	if sg.NumInputs() != 4 {
		t.Fatalf("inputs = %d, want 4", sg.NumInputs())
	}
	if sg.NumDFFs() != 3 {
		t.Fatalf("dffs = %d, want 3", sg.NumDFFs())
	}
	// G17 feeds the PO: the only boundary output of the whole-circuit
	// segment.
	if sg.NumOutputs() != 1 || sg.OutputNames[0] != "G17" {
		t.Fatalf("outputs = %v", sg.OutputNames)
	}
}

// operands lists the signals op o reads.
func (p *program) operands(o *op) []int32 {
	switch o.kind &^ 1 {
	case opBuf:
		return []int32{o.a}
	case opAnd2, opOr2, opXor2:
		return []int32{o.a, o.b}
	case opAnd3, opOr3, opXor3, opMux:
		return []int32{o.a, o.b, o.c}
	}
	return p.arena[o.a:o.b]
}

// The run-wise fold in the lane kernels is exact only if the program is
// topological and no run spans a level: an op must never read an op of its
// own run.
func TestBuildSegmentProgramOrder(t *testing.T) {
	_, _, s27sg := segmentFixture(t, s27)
	for _, sg := range []*Segment{s27sg, twinSegment(t)} {
		p := sg.prog
		level := make([]int, len(p.ops))
		for i := range p.ops {
			for _, f := range p.operands(&p.ops[i]) {
				if j := sg.opOf[f]; j >= 0 {
					if int(j) >= i {
						t.Fatalf("op %d reads %s, driven by later op %d", i, sg.names[f], j)
					}
					level[i] = max(level[i], level[j]+1)
				}
			}
		}
		start := 0
		for r, end := range p.runEnds {
			for i := start + 1; i < int(end); i++ {
				if level[i] != level[start] || p.ops[i].kind != p.ops[start].kind {
					t.Fatalf("run %d [%d:%d) mixes levels or opcodes at op %d", r, start, end, i)
				}
			}
			if start > 0 && level[start] == level[start-1] && p.ops[start].kind == p.ops[start-1].kind {
				t.Fatalf("run %d is not maximal", r)
			}
			start = int(end)
		}
		if start != len(p.ops) {
			t.Fatalf("runs cover %d of %d ops", start, len(p.ops))
		}
	}
}

// newEngine returns a one-word engine on sg, with fault f on lane 1 unless
// f is nil.
func newEngine(t *testing.T, sg *Segment, f *Fault) LaneEngine {
	t.Helper()
	e, err := sg.NewLaneEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		if err := e.Inject(*f, 1); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestCompileMatchesLaneEngine: the two forms of one circuit, Compile's
// scalar machine and a one-word lane engine on BuildSegment over every
// cell, must agree cycle by cycle on every primary output, over seeded
// bench89 random sequential circuits. The forms order their inputs and
// outputs differently (declaration order against net and signal order), so
// each clock's stimulus and the comparison go by name, which also pins
// StepSample's output order to OutputNames.
func TestCompileMatchesLaneEngine(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dffs := 1 + rng.Intn(20)
		gates := dffs + 20 + rng.Intn(150)
		invs := rng.Intn(40)
		sp := bench89.Spec{Name: fmt.Sprintf("rand%d", seed), PIs: 2 + rng.Intn(20), DFFs: dffs,
			Gates: gates, Inverters: invs, DFFsOnSCC: rng.Intn(dffs + 1),
			Area: float64(dffs*10+invs) + 3*float64(gates)}
		c, err := bench89.Generate(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		_, sg := wholeSegment(t, c)
		e := newEngine(t, sg, nil)
		st := whole.NewState()
		outs := make([]uint64, sg.NumOutputs())
		for cycle := 0; cycle < 64; cycle++ {
			var pattern uint64
			for i, in := range c.Inputs {
				var w uint64
				if rng.Intn(2) == 1 {
					w = ^uint64(0)
				}
				whole.SetInput(st, i, w)
				if w != 0 {
					pattern |= 1 << uint(slices.Index(sg.InputNames, in))
				}
			}
			whole.EvalComb(st)
			e.StepSample(pattern, 0, outs)
			for i, out := range c.Outputs {
				if c.IsInput(out) {
					continue // no cell of the segment sources it
				}
				want := whole.Output(st, i) & 1
				if got := outs[slices.Index(sg.OutputNames, out)]; got != want {
					t.Fatalf("%s cycle %d: output %s = %d on the lane engine, %d on the scalar machine",
						sp.Name, cycle, out, got, want)
				}
			}
			whole.ClockDFFs(st)
		}
	}
}

func TestSegmentFaultInjection(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	// Lane 1 of signal G8 is forced to 1 regardless of inputs; sampling
	// the faulty lane of one engine against the fault-free lane of another
	// must eventually show the divergence at the segment outputs.
	faulty := newEngine(t, sg, &Fault{Signal: "G8", Stuck1: true})
	clean := newEngine(t, sg, nil)
	fo := make([]uint64, sg.NumOutputs())
	co := make([]uint64, sg.NumOutputs())
	diverged := false
	for cycle := 0; cycle < 64 && !diverged; cycle++ {
		p := uint64(cycle % 16)
		faulty.StepSample(p, 1, fo)
		clean.StepSample(p, 0, co)
		for i := range fo {
			if fo[i] != co[i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("stuck-at-1 on G8 never visible at segment outputs")
	}
}

func TestFaultString(t *testing.T) {
	if (Fault{Signal: "x", Stuck1: true}).String() != "x/SA1" {
		t.Fatal("fault string")
	}
	if (Fault{Signal: "x"}).String() != "x/SA0" {
		t.Fatal("fault string SA0")
	}
}

func TestSubClusterSegment(t *testing.T) {
	// Build a segment for just the cluster {G12, G13, G7} with inputs
	// G1, G2 (PIs) — G7's loop closes internally.
	c, g, _ := segmentFixture(t, s27)
	ids := func(names ...string) []int {
		var out []int
		for _, n := range names {
			id, ok := g.NodeByName(n)
			if !ok {
				t.Fatalf("missing node %s", n)
			}
			out = append(out, id)
		}
		return out
	}
	nodes := ids("G12", "G13", "G7")
	var inputNets []int
	for e := range g.Nets {
		name := g.Nets[e].Name
		if name == "G1" || name == "G2" {
			inputNets = append(inputNets, e)
		}
	}
	sg, err := BuildSegment(c, g, nodes, inputNets)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumInputs() != 2 || sg.NumDFFs() != 1 {
		t.Fatalf("inputs=%d dffs=%d", sg.NumInputs(), sg.NumDFFs())
	}
	// G12 is read by G15 (outside): boundary output.
	foundG12 := false
	for _, o := range sg.OutputNames {
		if o == "G12" {
			foundG12 = true
		}
	}
	if !foundG12 {
		t.Fatalf("boundary outputs = %v, want G12 included", sg.OutputNames)
	}
	// Functional check: G12 = NOR(G1, G7), G13 = NOR(G2, G12), G7 = DFF(G13).
	out := make([]uint64, sg.NumOutputs())
	// inputs sorted by net id: G1 before G2.
	newEngine(t, sg, nil).StepSample(0b00, 0, out) // G1=0, G2=0; G7=0 -> G12=1
	var g12 uint64
	for i, name := range sg.OutputNames {
		if name == "G12" {
			g12 = out[i]
		}
	}
	if g12 != 1 {
		t.Fatalf("G12 = %d, want 1", g12)
	}
}
