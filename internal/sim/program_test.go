package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// refEval is the pre-flattening reference interpreter: a per-gate type
// switch walking per-op fanin slices. The program kernel must agree with
// it on every opcode, including the inline 1-, 2- and 3-input forms.
func refEval(t netlist.GateType, fanin []int, v []uint64) uint64 {
	switch t {
	case netlist.And, netlist.Nand:
		r := ^uint64(0)
		for _, f := range fanin {
			r &= v[f]
		}
		if t == netlist.Nand {
			return ^r
		}
		return r
	case netlist.Or, netlist.Nor:
		r := uint64(0)
		for _, f := range fanin {
			r |= v[f]
		}
		if t == netlist.Nor {
			return ^r
		}
		return r
	case netlist.Xor, netlist.Xnor:
		r := uint64(0)
		for _, f := range fanin {
			r ^= v[f]
		}
		if t == netlist.Xnor {
			return ^r
		}
		return r
	case netlist.Not:
		return ^v[fanin[0]]
	case netlist.Buf, netlist.DFF:
		return v[fanin[0]]
	case netlist.Mux:
		sel := v[fanin[0]]
		return (v[fanin[1]] &^ sel) | (v[fanin[2]] & sel)
	}
	return 0
}

// evalFaulty is the scalar fault-simulation oracle: the program with
// per-signal stuck-at lane masks folded into every computed value, op by
// op. It is pinned to refEval below, and the wide kernels in
// wide_unroll.go, which fold only at forced ops, are pinned to it plane by
// plane (lanes_test.go).
func (p *program) evalFaulty(v, force0, force1 []uint64) {
	for i := range p.ops {
		o := &p.ops[i]
		v[o.out] = p.gate(o, v)&^force0[o.out] | force1[o.out]
	}
}

func TestProgramMatchesReference(t *testing.T) {
	// Random DAG over 8 source signals: every gate type at fanins 1..5.
	rng := rand.New(rand.NewSource(42))
	order, next := randomProgram(rng, 200)
	const sources = 8
	prog := compileProgram(order, next)

	for trial := 0; trial < 50; trial++ {
		want := make([]uint64, next)
		got := make([]uint64, next)
		for i := 0; i < sources; i++ {
			w := rng.Uint64()
			want[i], got[i] = w, w
		}
		for _, op := range order {
			want[op.out] = refEval(op.typ, op.fanin, want)
		}
		prog.eval(got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: signal %d = %x, reference %x", trial, i, got[i], want[i])
			}
		}

		// evalFaulty with zero masks must agree with eval; with masks it
		// must pin exactly the forced lanes.
		f0 := make([]uint64, next)
		f1 := make([]uint64, next)
		prog.evalFaulty(got, f0, f1)
		for i := sources; i < next; i++ {
			if want[i] != got[i] {
				t.Fatalf("trial %d: zero-mask faulty eval diverged at %d", trial, i)
			}
		}
		victim := order[rng.Intn(len(order))].out
		f1[victim] = 1 << 7
		prog.evalFaulty(got, f0, f1)
		if got[victim]&(1<<7) == 0 {
			t.Fatalf("stuck-at-1 lane not forced on signal %d", victim)
		}
	}
}

func TestInjectorIsolation(t *testing.T) {
	// Two pooled engines on one shared segment must not see each other's
	// faults, and concurrent runs on separate engines must match serial
	// runs. Run with -race to check the sharing claim.
	_, _, sg := segmentFixture(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
n2 = XOR(n1, a)
y = OR(n2, b)
`)

	// run observes lane 1 with fault f injected there (none if nil).
	run := func(f *Fault) []uint64 {
		e, err := sg.GetLaneEngine(1)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer sg.PutLaneEngine(e)
		if f != nil {
			if err := e.Inject(*f, 1); err != nil {
				t.Error(err)
				return nil
			}
		}
		out := make([]uint64, sg.NumOutputs())
		res := make([]uint64, 0, 4)
		for pat := uint64(0); pat < 4; pat++ {
			e.StepSample(pat, 1, out)
			res = append(res, out...)
		}
		return res
	}
	fault := &Fault{Signal: "n1", Stuck1: false}

	wantClean := run(nil)
	wantFaulty := run(fault)
	if slices.Equal(wantClean, wantFaulty) {
		t.Fatal("n1/SA0 invisible at y — fixture assumption broken")
	}

	var a, b []uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = run(nil) }()
	go func() { defer wg.Done(); b = run(fault) }()
	wg.Wait()
	if !slices.Equal(a, wantClean) || !slices.Equal(b, wantFaulty) {
		t.Fatalf("concurrent runs diverged from serial: clean %v want %v, faulty %v want %v",
			a, wantClean, b, wantFaulty)
	}
}

// wideBench builds a deep layered circuit: layers of w 2-input gates, each
// reading the previous layer, stressing the topological sort.
func wideBench(layers, w int) string {
	var sb strings.Builder
	for i := 0; i < w; i++ {
		fmt.Fprintf(&sb, "INPUT(i%d)\n", i)
	}
	fmt.Fprintf(&sb, "OUTPUT(o)\n")
	prev := func(l, i int) string {
		if l == 0 {
			return fmt.Sprintf("i%d", i%w)
		}
		return fmt.Sprintf("g%d_%d", l-1, i%w)
	}
	for l := 0; l < layers; l++ {
		for i := 0; i < w; i++ {
			fmt.Fprintf(&sb, "g%d_%d = NAND(%s, %s)\n", l, i, prev(l, i), prev(l, i+1))
		}
	}
	fmt.Fprintf(&sb, "o = BUF(g%d_0)\n", layers-1)
	return sb.String()
}

func TestCompileWideCircuit(t *testing.T) {
	ev := compile(t, wideBench(40, 25))
	if len(ev.Signals()) < 40*25 {
		t.Fatalf("signals = %d", len(ev.Signals()))
	}
	// One settle: all-ones inputs propagate without panicking.
	st := ev.NewState()
	for i := 0; i < 25; i++ {
		ev.SetInput(st, i, ^uint64(0))
	}
	ev.EvalComb(st)
}

// BenchmarkSimCompile pins the compile cost on a deep wide circuit; the
// indegree-worklist Kahn sort keeps this linear in gates + edges where the
// old repeated-rescan sort was quadratic on exactly this shape (each scan
// unlocked only one more layer).
func BenchmarkSimCompile(b *testing.B) {
	c, err := netlist.ParseBenchString("wide", wideBench(200, 50))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(c); err != nil {
			b.Fatal(err)
		}
	}
}
