package ppet

import (
	"context"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sim"
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

func compiled(t *testing.T, lk int) (*netlist.Circuit, *core.Result) {
	t.Helper()
	c, err := netlist.ParseBenchString("s27", s27)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(lk, 1))
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func TestBuildPlan(t *testing.T) {
	_, r := compiled(t, 3)
	plan, err := BuildPlan(r.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Segments) != len(r.Partition.Clusters) {
		t.Fatalf("segments = %d, clusters = %d", len(plan.Segments), len(r.Partition.Clusters))
	}
	for _, s := range plan.Segments {
		if s.TPGWidth < s.Inputs {
			t.Fatalf("segment %d: TPG width %d < inputs %d", s.Cluster, s.TPGWidth, s.Inputs)
		}
		if s.TestingTime <= 0 {
			t.Fatalf("segment %d: testing time %v", s.Cluster, s.TestingTime)
		}
	}
	// Total testing time is dominated by the widest CBIT (Figure 1(b)).
	maxT := 0.0
	for _, s := range plan.Segments {
		if s.TestingTime > maxT {
			maxT = s.TestingTime
		}
	}
	if plan.TotalTime != maxT {
		t.Fatalf("total time %v, want %v", plan.TotalTime, maxT)
	}
}

func TestSelfTestDeterministic(t *testing.T) {
	c, r := compiled(t, 3)
	a, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("signature counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Cycles != b[i].Cycles {
			t.Fatalf("nondeterministic signature %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSelfTestSeedChangesSignatures(t *testing.T) {
	c, r := compiled(t, 3)
	a, _ := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5})
	b, _ := SelfTest(c, r.Partition, SelfTestOptions{Seed: 6})
	same := true
	for i := range a {
		if a[i].Value != b[i].Value {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical signatures for every segment")
	}
}

func TestSelfTestDetectsFault(t *testing.T) {
	c, r := compiled(t, 3)
	golden, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a stuck-at on a signal that certainly exists: G8.
	faulty, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5, Fault: &sim.Fault{Signal: "G8", Stuck1: true}})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range golden {
		if golden[i].Value != faulty[i].Value {
			diff = true
		}
	}
	if !diff {
		t.Fatal("stuck-at fault left every segment signature unchanged")
	}
}

func TestSelfTestUnknownFaultSignalHarmless(t *testing.T) {
	c, r := compiled(t, 3)
	golden, _ := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5})
	same, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 5, Fault: &sim.Fault{Signal: "not-a-signal"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		if golden[i].Value != same[i].Value {
			t.Fatal("unknown fault signal changed signatures")
		}
	}
}

func TestPipeTime(t *testing.T) {
	if PipeTime([]int{4, 8, 16}) != 65536 {
		t.Fatal("pipe time must be dominated by the widest CBIT")
	}
	if PipeTime(nil) != 1 {
		t.Fatalf("empty pipe time = %v", PipeTime(nil))
	}
}

// dffBoundaryOutputs counts boundary output nets sourced by a flip-flop
// inside their own segment. Those are the outputs whose value changes at
// the latch, so they pin the self-test's sample-before-latch order.
func dffBoundaryOutputs(r *core.Result) int {
	g := r.Graph
	n := 0
	for _, cl := range r.Partition.Clusters {
		in := make(map[int]bool, len(cl.Nodes))
		for _, v := range cl.Nodes {
			in[v] = true
		}
		for _, v := range cl.Nodes {
			if g.Nodes[v].Gate != netlist.DFF {
				continue
			}
			for _, e := range g.Out[v] {
				for _, s := range g.Nets[e].Sinks {
					if !in[s] {
						n++
						break
					}
				}
			}
		}
	}
	return n
}

// The self-test signatures of two Table 9 circuits at seed 1, fault-free
// and with one stuck-at-1 flip-flop output, as literals. Any change to how
// a segment is driven, sampled or latched moves them. The faulty run must
// differ from the golden one in exactly one segment. The values were last
// re-blessed when the flip-flop latch became two-phase (a flip-flop fed by
// another flip-flop now takes its pre-clock value), which moved segment 4
// of s510 and seven segments of s1423.
func TestSelfTestGoldenSignatures(t *testing.T) {
	cases := []struct {
		circuit  string
		lk       int
		fault    string
		golden   []uint64
		faultSeg int
		faultSig uint64
	}{
		{
			circuit: "s510", lk: 8, fault: "FF0",
			golden: []uint64{
				0x4, 0x2b7, 0x63072995, 0x198, 0x3a7, 0xea30ad, 0x1b9dd, 0x130, 0x1f, 0xb8,
				0x27, 0x2b, 0x1401, 0x32, 0xf, 0x33, 0x2c, 0x6, 0x3, 0x3,
			},
			faultSeg: 10, faultSig: 0x5d,
		},
		{
			circuit: "s1423", lk: 16, fault: "FF15",
			golden: []uint64{
				0xbf5f, 0x8d2aa9, 0x1ab28cf3, 0x660c, 0x37cee3, 0xbc922ed7, 0x536924,
				0x3ee61d40, 0xc2c19401, 0x2758f05e, 0x73c45eff, 0xd527a5, 0xf45957f3,
				0x7ae3ba, 0x195, 0x355, 0x5379, 0x6, 0x4c2, 0x2,
			},
			faultSeg: 9, faultSig: 0x57f3c631,
		},
	}
	for _, tc := range cases {
		c, err := bench89.Load(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Compile(context.Background(), c, core.DefaultOptions(tc.lk, 1))
		if err != nil {
			t.Fatal(err)
		}
		if dffBoundaryOutputs(r) == 0 {
			t.Fatalf("%s @ l_k=%d: no DFF-sourced boundary output", tc.circuit, tc.lk)
		}
		faulty := append([]uint64(nil), tc.golden...)
		faulty[tc.faultSeg] = tc.faultSig
		runs := []struct {
			opt  SelfTestOptions
			want []uint64
		}{
			{SelfTestOptions{Seed: 1}, tc.golden},
			{SelfTestOptions{Seed: 1, Fault: &sim.Fault{Signal: tc.fault, Stuck1: true}}, faulty},
		}
		for _, run := range runs {
			sigs, err := SelfTest(c, r.Partition, run.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sigs) != len(run.want) {
				t.Fatalf("%s: %d signatures, want %d", tc.circuit, len(sigs), len(run.want))
			}
			for i, s := range sigs {
				if s.Value != run.want[i] {
					t.Errorf("%s fault=%v: segment %d signature %#x, want %#x",
						tc.circuit, run.opt.Fault, i, s.Value, run.want[i])
				}
			}
		}
	}
}

func TestSelfTestMaxCycles(t *testing.T) {
	c, r := compiled(t, 3)
	sigs, err := SelfTest(c, r.Partition, SelfTestOptions{Seed: 1, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs {
		if s.Cycles != 10 {
			t.Fatalf("cycles = %d, want 10", s.Cycles)
		}
	}
}
