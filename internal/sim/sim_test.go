package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

func compile(t *testing.T, text string) *Segment {
	t.Helper()
	c, err := netlist.ParseBenchString("t", text)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestGateTruthTables(t *testing.T) {
	ev := compile(t, `
INPUT(a)
INPUT(b)
OUTPUT(and2)
OUTPUT(nand2)
OUTPUT(or2)
OUTPUT(nor2)
OUTPUT(xor2)
OUTPUT(xnor2)
OUTPUT(nota)
OUTPUT(bufa)
and2 = AND(a, b)
nand2 = NAND(a, b)
or2 = OR(a, b)
nor2 = NOR(a, b)
xor2 = XOR(a, b)
xnor2 = XNOR(a, b)
nota = NOT(a)
bufa = BUFF(a)
`)
	s := ev.NewState()
	// Patterns in lanes: a = 0101..., b = 0011...
	ev.SetInput(s, 0, 0xA) // a: lanes 1,3
	ev.SetInput(s, 1, 0xC) // b: lanes 2,3
	ev.EvalComb(s)
	mask := uint64(0xF)
	want := map[int]uint64{
		0: 0x8, // AND
		1: 0x7, // NAND
		2: 0xE, // OR
		3: 0x1, // NOR
		4: 0x6, // XOR
		5: 0x9, // XNOR
		6: 0x5, // NOT a
		7: 0xA, // BUF a
	}
	for i, w := range want {
		if got := ev.Output(s, i) & mask; got != w {
			t.Errorf("output %d = %x, want %x", i, got, w)
		}
	}
}

func TestWideGates(t *testing.T) {
	ev := compile(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(x)
OUTPUT(y)
x = AND(a, b, c)
y = XOR(a, b, c)
`)
	s := ev.NewState()
	ev.SetInput(s, 0, 0b10101010)
	ev.SetInput(s, 1, 0b11001100)
	ev.SetInput(s, 2, 0b11110000)
	ev.EvalComb(s)
	if got := ev.Output(s, 0) & 0xFF; got != 0b10000000 {
		t.Fatalf("AND3 = %b", got)
	}
	if got := ev.Output(s, 1) & 0xFF; got != 0b10010110 {
		t.Fatalf("XOR3 = %b", got)
	}
}

func TestSequentialCounterish(t *testing.T) {
	// q toggles every cycle: q' = NOT(q).
	ev := compile(t, `
INPUT(dummy)
OUTPUT(q)
q = DFF(nq)
nq = NOT(q)
`)
	s := ev.NewState()
	var seq []uint64
	for i := 0; i < 4; i++ {
		ev.Step(s)
		seq = append(seq, ev.Output(s, 0)&1)
	}
	want := []uint64{1, 0, 1, 0}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("toggle sequence = %v", seq)
		}
	}
}

func TestCombCycleRejected(t *testing.T) {
	c, err := netlist.ParseBenchString("cyc", `
INPUT(a)
OUTPUT(x)
x = NAND(a, y)
y = NAND(a, x)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	c, err := netlist.ParseBenchString("seq", `
INPUT(a)
OUTPUT(x)
x = NAND(a, q)
q = DFF(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c); err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
}

// referenceEval evaluates one gate on single-bit values for the
// parallel-vs-scalar equivalence property.
func referenceEval(tp netlist.GateType, ins []uint64) uint64 {
	switch tp {
	case netlist.And, netlist.Nand:
		r := uint64(1)
		for _, v := range ins {
			r &= v
		}
		if tp == netlist.Nand {
			return r ^ 1
		}
		return r
	case netlist.Or, netlist.Nor:
		r := uint64(0)
		for _, v := range ins {
			r |= v
		}
		if tp == netlist.Nor {
			return r ^ 1
		}
		return r
	case netlist.Xor, netlist.Xnor:
		r := uint64(0)
		for _, v := range ins {
			r ^= v
		}
		if tp == netlist.Xnor {
			return r ^ 1
		}
		return r
	case netlist.Not:
		return ins[0] ^ 1
	default:
		return ins[0]
	}
}

// TestParallelMatchesScalar: each of the 64 lanes of the bit-parallel
// scalar machine must equal an independent scalar evaluation.
func TestParallelMatchesScalar(t *testing.T) {
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := types[rng.Intn(len(types))]
		k := 2 + rng.Intn(3)
		c := netlist.New("p")
		names := make([]string, k)
		for i := range names {
			names[i] = "i" + string(rune('a'+i))
			_ = c.AddInput(names[i])
		}
		_, _ = c.AddGate("y", tp, names...)
		c.AddOutput("y")
		ev, err := Compile(c)
		if err != nil {
			return false
		}
		s := ev.NewState()
		words := make([]uint64, k)
		for i := range words {
			words[i] = rng.Uint64()
			ev.SetInput(s, i, words[i])
		}
		ev.EvalComb(s)
		out := ev.Output(s, 0)
		for lane := 0; lane < 64; lane++ {
			ins := make([]uint64, k)
			for i := range ins {
				ins[i] = (words[i] >> uint(lane)) & 1
			}
			if (out>>uint(lane))&1 != referenceEval(tp, ins) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// shiftRegister and dffRing are the flip-flop-to-flip-flop fixtures of the
// two-phase latch tests: every D must be read before any Q is written.
const shiftRegister = `
INPUT(a)
OUTPUT(q3)
q1 = DFF(a)
q2 = DFF(q1)
q3 = DFF(q2)
`

const dffRing = `
INPUT(a)
OUTPUT(q2)
q1 = DFF(q2)
q2 = DFF(q1)
`

// A one moves one stage per clock; a latch that wrote Q in place would
// push it through the whole register on the first clock.
func TestClockDFFsShiftRegister(t *testing.T) {
	ev := compile(t, shiftRegister)
	s := ev.NewState()
	q := []int{ev.index["q1"], ev.index["q2"], ev.index["q3"]}
	for clock := 1; clock <= 3; clock++ {
		ev.SetInput(s, 0, ^uint64(0))
		ev.Step(s)
		for i, sig := range q {
			want := uint64(0)
			if i < clock {
				want = ^uint64(0)
			}
			if s.V[sig] != want {
				t.Fatalf("clock %d: q%d = %x, want %x", clock, i+1, s.V[sig], want)
			}
		}
	}
}

// Two flip-flops feeding each other swap their values every clock; an
// in-place latch would copy one into both.
func TestClockDFFsRing(t *testing.T) {
	ev := compile(t, dffRing)
	s := ev.NewState()
	q1, q2 := ev.index["q1"], ev.index["q2"]
	s.V[q1], s.V[q2] = 0xF0, 0x0F
	for clock := 1; clock <= 4; clock++ {
		ev.Step(s)
		want1, want2 := uint64(0x0F), uint64(0xF0)
		if clock%2 == 0 {
			want1, want2 = want2, want1
		}
		if s.V[q1] != want1 || s.V[q2] != want2 {
			t.Fatalf("clock %d: q1 q2 = %x %x, want %x %x", clock, s.V[q1], s.V[q2], want1, want2)
		}
	}
}
