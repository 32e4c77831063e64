package sim

import (
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// randomProgram builds the same random-DAG program shape as
// TestProgramMatchesReference: every gate type at fanins 1..5 over 8
// source signals.
func randomProgram(rng *rand.Rand, gates int) ([]gateOp, int) {
	const sources = 8
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Mux,
	}
	var order []gateOp
	next := sources
	for i := 0; i < gates; i++ {
		typ := types[rng.Intn(len(types))]
		n := 1 + rng.Intn(5)
		switch typ {
		case netlist.Not, netlist.Buf:
			n = 1
		case netlist.Mux:
			n = 3
		}
		fanin := make([]int, n)
		for j := range fanin {
			fanin[j] = rng.Intn(next)
		}
		order = append(order, gateOp{typ: typ, out: next, fanin: fanin})
		next++
	}
	return order, next
}

// vecTrial runs the unrolled kernel kern at one width against the scalar
// kernels plane by plane: element j of every vector word must equal an
// independent scalar evaluation of plane j. Even trials run with zero force
// masks against the fault-free program.eval, odd trials with sparse random
// masks against the evalFaulty oracle, handing the kernel the ops whose
// outputs carry a mask. This is the differential property that pins every
// width to the scalar reference already pinned to refEval.
func vecTrial[W lanevec](t *testing.T, rng *rand.Rand, prog *program, nsig int, trials int,
	kern func(p *program, v, force0, force1 []W, forced []int32)) {
	t.Helper()
	var zero W
	words := len(zero)
	for trial := 0; trial < trials; trial++ {
		v := make([]W, nsig)
		f0 := make([]W, nsig)
		f1 := make([]W, nsig)
		for i := 0; i < 8; i++ {
			for j := 0; j < words; j++ {
				v[i][j] = rng.Uint64()
			}
		}
		faulty := trial%2 == 1
		// Sparse random force masks. Overlapping f0/f1 bits are fine for
		// the differential: both kernels resolve the overlap the same way
		// (the stuck-at-1 mask is applied last).
		for i := range f0 {
			if !faulty {
				break
			}
			if rng.Intn(4) == 0 {
				f0[i][rng.Intn(words)] = rng.Uint64()
			}
			if rng.Intn(4) == 0 {
				f1[i][rng.Intn(words)] = rng.Uint64()
			}
		}
		var forced []int32
		for i, o := range prog.ops {
			if f0[o.out] != zero || f1[o.out] != zero {
				forced = append(forced, int32(i))
			}
		}

		// Scalar reference planes, captured before the wide kernel runs.
		type plane struct{ v, f0, f1 []uint64 }
		planes := make([]plane, words)
		for j := 0; j < words; j++ {
			p := plane{make([]uint64, nsig), make([]uint64, nsig), make([]uint64, nsig)}
			for i := 0; i < nsig; i++ {
				p.v[i], p.f0[i], p.f1[i] = v[i][j], f0[i][j], f1[i][j]
			}
			planes[j] = p
		}

		kern(prog, v, f0, f1, forced)
		for j := 0; j < words; j++ {
			if faulty {
				prog.evalFaulty(planes[j].v, planes[j].f0, planes[j].f1)
			} else {
				prog.eval(planes[j].v)
			}
		}
		for i := 0; i < nsig; i++ {
			for j := 0; j < words; j++ {
				if v[i][j] != planes[j].v[i] {
					t.Fatalf("W=%d trial %d: signal %d plane %d = %x, scalar %x",
						words, trial, i, j, v[i][j], planes[j].v[i])
				}
			}
		}
	}
}

func TestVecKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	order, nsig := randomProgram(rng, 200)
	prog := compileProgram(order, nsig)
	vecTrial(t, rng, prog, nsig, 20, settle1)
	vecTrial(t, rng, prog, nsig, 20, settle2)
	vecTrial(t, rng, prog, nsig, 20, settle4)
}

// All single stuck-at faults of a segment, in deterministic signal order.
func segmentFaults(sg *Segment) []Fault {
	var out []Fault
	for _, name := range sg.names {
		out = append(out, Fault{Signal: name, Stuck1: false}, Fault{Signal: name, Stuck1: true})
	}
	return out
}

// The width-invariance contract behind the campaign's byte-identical
// reports: a fault's verdict after a fixed pattern sequence is the same at
// every vector width and in every lane position.
func TestLaneEngineWidthInvariant(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	faults := segmentFaults(sg)
	patterns := make([]uint64, 48)
	rng := rand.New(rand.NewSource(3))
	for i := range patterns {
		patterns[i] = rng.Uint64() & 0xf
	}

	verdict := func(words int, f Fault, lane int) bool {
		e, err := sg.GetLaneEngine(words)
		if err != nil {
			t.Fatal(err)
		}
		defer sg.PutLaneEngine(e)
		if err := e.Inject(f, lane); err != nil {
			t.Fatal(err)
		}
		// Arm the whole lane range so the armed mask covers the lane at
		// every width (faultless armed lanes never diverge, so this does
		// not change the verdict).
		e.Arm(e.Lanes())
		e.ResetState()
		for _, p := range patterns {
			e.Step(p)
		}
		return e.Detected(lane)
	}

	for _, f := range faults {
		want := verdict(1, f, 1)
		for _, words := range LaneWordSizes[1:] {
			// First lane, a middle-word lane, and the last lane all must
			// agree with the one-word verdict.
			for _, lane := range []int{1, 64 * words / 2, BatchLanes(words)} {
				if got := verdict(words, f, lane); got != want {
					t.Fatalf("%v: W=%d lane %d verdict %v, W=1 verdict %v", f, words, lane, got, want)
				}
			}
		}
	}
}

// refClock is the scalar reference for one engine clock over 64 lanes:
// drive the inputs, settle through the evalFaulty oracle, sample the
// boundary outputs, then latch the flip-flops.
type refClock struct {
	sg        *Segment
	v, f0, f1 []uint64
}

func newRefClock(sg *Segment) *refClock {
	n := len(sg.names)
	return &refClock{sg, make([]uint64, n), make([]uint64, n), make([]uint64, n)}
}

func (r *refClock) step(pattern uint64, out []uint64) {
	sg, v := r.sg, r.v
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		v[sig] = (w &^ r.f0[sig]) | r.f1[sig]
	}
	sg.prog.evalFaulty(v, r.f0, r.f1)
	for i, sig := range sg.outputs {
		out[i] = v[sig]
	}
	for _, d := range sg.dffs {
		v[d.out] = (v[d.in] &^ r.f0[d.out]) | r.f1[d.out]
	}
}

// StepSample at every width must agree cycle by cycle with the scalar
// reference clock, for every fault, on the fault-free lane and on the
// faulty one (the last lane of the engine, lane 1 of the reference). The
// s27 sub-cluster {G10, G5} exports G5 = DFF(G10) to G11, so its only
// boundary output changes at the latch and pins sampling before it.
func TestLaneEngineMatchesScalarSegment(t *testing.T) {
	c, g, whole := segmentFixture(t, s27)
	var nodes, inputs []int
	for _, name := range []string{"G10", "G5"} {
		id, _ := g.NodeByName(name)
		nodes = append(nodes, id)
	}
	for e := range g.Nets {
		if name := g.Nets[e].Name; name == "G14" || name == "G11" {
			inputs = append(inputs, e)
		}
	}
	sub, err := BuildSegment(c, g, nodes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.OutputNames) != 1 || sub.OutputNames[0] != "G5" {
		t.Fatalf("sub-cluster outputs = %v, want [G5]", sub.OutputNames)
	}

	for _, sg := range []*Segment{whole, sub} {
		want := make([]uint64, sg.NumOutputs())
		got := make([]uint64, sg.NumOutputs())
		for _, f := range segmentFaults(sg) {
			for _, words := range LaneWordSizes {
				ref := newRefClock(sg)
				i := sg.index[f.Signal]
				if f.Stuck1 {
					ref.f1[i] = 2
				} else {
					ref.f0[i] = 2
				}
				e, err := sg.NewLaneEngine(words)
				if err != nil {
					t.Fatal(err)
				}
				lane := e.Lanes()
				if err := e.Inject(f, lane); err != nil {
					t.Fatal(err)
				}
				for cycle := 0; cycle < 48; cycle++ {
					p := uint64(cycle * 5 % 16)
					ref.step(p, want)
					engLane, refLane := 0, 0
					if cycle%2 == 1 {
						engLane, refLane = lane, 1
					}
					e.StepSample(p, engLane, got)
					for o := range got {
						if w := want[o] >> uint(refLane) & 1; got[o] != w {
							t.Fatalf("%v W=%d cycle %d lane %d: %s = %d, reference %d",
								f, words, cycle, engLane, sg.OutputNames[o], got[o], w)
						}
					}
				}
			}
		}
	}
}

// twinTrial runs faults through a W-wide engine in full batches beside W
// scalar reference clocks, one per word plane, and compares every signal
// of every lane after each clock and every lane's verdict after the batch.
// Consecutive batches reuse the engine, so ClearFaults is covered too.
func twinTrial[W lanevec](t *testing.T, sg *Segment, faults []Fault, patterns []uint64) {
	t.Helper()
	e := newLaneEngine[W](sg)
	words := e.Words()
	outs := make([][]uint64, words)
	for j := range outs {
		outs[j] = make([]uint64, sg.NumOutputs())
	}
	for len(faults) > 0 {
		batch := faults[:min(len(faults), e.Lanes())]
		faults = faults[len(batch):]
		e.ClearFaults()
		e.ResetState()
		refs := make([]*refClock, words)
		for j := range refs {
			refs[j] = newRefClock(sg)
		}
		for i, f := range batch {
			lane := i + 1
			if err := e.Inject(f, lane); err != nil {
				t.Fatal(err)
			}
			mask := &refs[lane>>6].f0[sg.index[f.Signal]]
			if f.Stuck1 {
				mask = &refs[lane>>6].f1[sg.index[f.Signal]]
			}
			*mask |= 1 << uint(lane&63)
		}
		e.Arm(len(batch))
		det := make([]uint64, words)
		for cycle, p := range patterns {
			e.Step(p)
			for j, r := range refs {
				r.step(p, outs[j])
			}
			for o := range outs[0] {
				ref := -(outs[0][o] & 1)
				for j := range det {
					det[j] |= outs[j][o] ^ ref
				}
			}
			for sig := range e.v {
				for j := range words {
					if got, want := e.v[sig][j], refs[j].v[sig]; got != want {
						t.Fatalf("W=%d cycle %d: %s plane %d = %x, reference %x",
							words, cycle, sg.names[sig], j, got, want)
					}
				}
			}
		}
		for i, f := range batch {
			lane := i + 1
			if want := det[lane>>6]>>uint(lane&63)&1 != 0; e.Detected(lane) != want {
				t.Fatalf("W=%d %v lane %d: detected %v, reference %v", words, f, lane, e.Detected(lane), want)
			}
		}
	}
}

// The s641 twin adds what s27 lacks: 3-input gates, so the inline 3-input
// opcodes, and many runs per level. Every fault — on inputs, gate outputs
// and flip-flop outputs — runs at every width.
func TestLaneEngineMatchesScalarTwin(t *testing.T) {
	sg := twinSegment(t)
	var has3 bool
	for _, o := range sg.prog.ops {
		has3 = has3 || o.kind&^1 == opAnd3 || o.kind&^1 == opOr3
	}
	if !has3 || sg.NumDFFs() == 0 {
		t.Fatal("twin segment lacks 3-input gates or flip-flops — fixture assumption broken")
	}
	faults := segmentFaults(sg)
	patterns := make([]uint64, 40)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range patterns {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		patterns[i] = x
	}
	twinTrial[[1]uint64](t, sg, faults, patterns)
	twinTrial[[2]uint64](t, sg, faults, patterns)
	twinTrial[[4]uint64](t, sg, faults, patterns)
}

func TestBatchLanes(t *testing.T) {
	for _, tc := range []struct{ words, lanes int }{{1, 63}, {2, 127}, {4, 255}} {
		if got := BatchLanes(tc.words); got != tc.lanes {
			t.Errorf("BatchLanes(%d) = %d, want %d", tc.words, got, tc.lanes)
		}
	}
	if LanesPerWord != BatchLanes(1) {
		t.Errorf("LanesPerWord = %d, want BatchLanes(1) = %d", LanesPerWord, BatchLanes(1))
	}
}

func TestFitLaneWords(t *testing.T) {
	for _, tc := range []struct{ n, max, want int }{
		{1, 4, 1}, {63, 4, 1}, {64, 4, 2}, {127, 4, 2}, {128, 4, 4},
		{255, 4, 4}, {256, 4, 4}, {512, 4, 4}, // over capacity: clamps to max
		{200, 2, 2}, {10, 2, 1}, {70, 1, 1}, {1, 1, 1},
	} {
		if got := FitLaneWords(tc.n, tc.max); got != tc.want {
			t.Errorf("FitLaneWords(%d, %d) = %d, want %d", tc.n, tc.max, got, tc.want)
		}
	}
}

func TestLaneEngineValidation(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	if _, err := sg.NewLaneEngine(3); err == nil {
		t.Error("width 3 accepted")
	}
	if _, err := sg.GetLaneEngine(0); err == nil {
		t.Error("width 0 accepted")
	}
	e, err := sg.NewLaneEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Words() != 2 || e.Lanes() != 127 {
		t.Fatalf("Words=%d Lanes=%d", e.Words(), e.Lanes())
	}
	if err := e.Inject(Fault{Signal: "G8"}, 0); err == nil {
		t.Error("lane 0 accepted")
	}
	if err := e.Inject(Fault{Signal: "G8"}, 128); err == nil {
		t.Error("lane 128 accepted on a 127-lane engine")
	}
	if err := e.Inject(Fault{Signal: "nope"}, 1); err == nil {
		t.Error("unknown signal accepted")
	}

	// Arm clamps to the engine's lanes rather than indexing past them.
	one, err := sg.NewLaneEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	one.Arm(64)
	if one.AllDetected() {
		t.Error("fault-free engine armed past its lanes reports all detected")
	}
}

// Pool recycling must hand back engines with no residue: no stale faults,
// state, or detection bits from the previous user.
func TestLaneEnginePoolHygiene(t *testing.T) {
	_, _, sg := segmentFixture(t, s27)
	e, err := sg.GetLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Inject(Fault{Signal: "G8", Stuck1: true}, 7); err != nil {
		t.Fatal(err)
	}
	e.Arm(7)
	for p := uint64(0); p < 32; p++ {
		e.Step(p)
	}
	if !e.Detected(7) {
		t.Fatal("G8/SA1 undetected — fixture assumption broken")
	}
	sg.PutLaneEngine(e)

	r, err := sg.GetLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(7)
	for p := uint64(0); p < 32; p++ {
		r.Step(p)
	}
	for lane := 1; lane <= 7; lane++ {
		if r.Detected(lane) {
			t.Fatalf("recycled engine detected lane %d with no faults injected", lane)
		}
	}

	// A foreign engine must not enter the pool.
	_, _, other := segmentFixture(t, s27)
	oe, err := other.NewLaneEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	sg.PutLaneEngine(oe) // silently dropped
	sg.PutLaneEngine(nil)
}
