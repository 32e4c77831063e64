package netlist

import (
	"strings"
	"testing"
)

func mustCircuit(t *testing.T, text string) *Circuit {
	t.Helper()
	c, err := ParseBenchString("test", text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

const tiny = `
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(y)
n = NAND(a, b)
y = AND(n, q)
`

func TestParseBenchBasic(t *testing.T) {
	c := mustCircuit(t, tiny)
	if len(c.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2", len(c.Inputs))
	}
	if len(c.Outputs) != 1 || c.Outputs[0] != "y" {
		t.Fatalf("outputs = %v", c.Outputs)
	}
	if got := len(c.Gates); got != 3 {
		t.Fatalf("gates = %d, want 3", got)
	}
	g := c.Gate("n")
	if g == nil || g.Type != Nand || len(g.Fanin) != 2 {
		t.Fatalf("gate n = %+v", g)
	}
	if c.NumDFFs() != 1 {
		t.Fatalf("DFFs = %d", c.NumDFFs())
	}
}

func TestParseBenchComments(t *testing.T) {
	c := mustCircuit(t, "# header\nINPUT(a) # trailing\nOUTPUT(a)\n\n")
	if len(c.Inputs) != 1 || len(c.Outputs) != 1 {
		t.Fatalf("got %d inputs %d outputs", len(c.Inputs), len(c.Outputs))
	}
}

func TestParseBenchCaseInsensitiveTypes(t *testing.T) {
	c := mustCircuit(t, "INPUT(a)\nOUTPUT(y)\ny = nand(a, a2)\na2 = not(a)\n")
	if c.Gate("y").Type != Nand || c.Gate("a2").Type != Not {
		t.Fatal("case-insensitive gate types not accepted")
	}
}

func TestParseBenchBufSynonyms(t *testing.T) {
	c := mustCircuit(t, "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
	if c.Gate("y").Type != Buf {
		t.Fatal("BUFF not parsed as buffer")
	}
	c2 := mustCircuit(t, "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n")
	if c2.Gate("y").Type != Buf {
		t.Fatal("BUF not parsed as buffer")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\ny = FROB(a)\n",            // unknown gate
		"INPUT(a)\ny = NOT(a, a)\n",          // NOT arity
		"INPUT(a)\ny = AND(a)\n",             // AND arity
		"INPUT(a)\nINPUT(a)\n",               // duplicate input
		"INPUT(a)\ny = AND(a, zz)\n",         // undriven fanin
		"OUTPUT(nope)\n",                     // undriven output
		"INPUT(a)\na = NOT(a)\n",             // gate collides with input
		"INPUT(a)\ny = NOT(a)\ny = NOT(a)\n", // duplicate driver
		"garbage line\n",
		"INPUT(a)\ny = AND(a,)\n", // empty fanin
	}
	for _, text := range cases {
		if _, err := ParseBenchString("bad", text); err == nil {
			t.Errorf("expected error for %q", text)
		}
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	c := mustCircuit(t, tiny)
	text := c.BenchString()
	c2, err := ParseBenchString("test", text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(c2.Gates) != len(c.Gates) || len(c2.Inputs) != len(c.Inputs) || len(c2.Outputs) != len(c.Outputs) {
		t.Fatalf("roundtrip mismatch: %s vs %s", c, c2)
	}
	for i, g := range c.Gates {
		g2 := c2.Gates[i]
		if g.Name != g2.Name || g.Type != g2.Type || strings.Join(g.Fanin, ",") != strings.Join(g2.Fanin, ",") {
			t.Fatalf("gate %d differs: %+v vs %+v", i, g, g2)
		}
	}
}

func TestFanoutBuilt(t *testing.T) {
	c := mustCircuit(t, tiny)
	n := c.Gate("n")
	if len(n.Fanout()) != 1 || n.Fanout()[0] != "y" {
		t.Fatalf("fanout of n = %v", n.Fanout())
	}
}

func TestGateAreaModel(t *testing.T) {
	cases := []struct {
		t    GateType
		k    int
		want float64
	}{
		{Not, 1, 1}, {Buf, 1, 1}, {DFF, 1, 10},
		{And, 2, 3}, {And, 3, 4}, {And, 4, 5},
		{Nand, 2, 2}, {Nand, 4, 4},
		{Or, 2, 3}, {Nor, 2, 2}, {Nor, 3, 3},
		{Xor, 2, 4}, {Xnor, 2, 5},
	}
	for _, tc := range cases {
		if got := GateArea(tc.t, tc.k); got != tc.want {
			t.Errorf("GateArea(%v,%d) = %v, want %v", tc.t, tc.k, got, tc.want)
		}
	}
}

func TestCircuitArea(t *testing.T) {
	c := mustCircuit(t, tiny)
	// DFF 10 + NAND2 2 + AND2 3 = 15.
	if got := c.Area(); got != 15 {
		t.Fatalf("area = %v, want 15", got)
	}
}

func TestStats(t *testing.T) {
	c := mustCircuit(t, tiny)
	s := c.Stats()
	if s.PIs != 2 || s.DFFs != 1 || s.Gates != 2 || s.Inverters != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAddGateValidation(t *testing.T) {
	c := New("x")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("a", Not, "a"); err == nil {
		t.Fatal("gate colliding with input accepted")
	}
	if _, err := c.AddGate("g", Invalid, "a"); err == nil {
		t.Fatal("invalid type accepted")
	}
	if _, err := c.AddGate("g", Xor, "a"); err == nil {
		t.Fatal("1-input XOR accepted")
	}
}

func TestSortedSignals(t *testing.T) {
	c := mustCircuit(t, tiny)
	got := c.SortedSignals()
	want := []string{"a", "b", "n", "q", "y"}
	if len(got) != len(want) {
		t.Fatalf("signals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("signals = %v, want %v", got, want)
		}
	}
}

func TestGateTypeString(t *testing.T) {
	if DFF.String() != "DFF" || Nand.String() != "NAND" || Buf.String() != "BUFF" {
		t.Fatal("unexpected type names")
	}
	if !And.IsComb() || DFF.IsComb() || Invalid.IsComb() {
		t.Fatal("IsComb wrong")
	}
}
