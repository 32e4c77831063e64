package sim

// Hand-unrolled width specializations of the fault-simulation kernel, the
// only one that ships.
//
// A generic [W]uint64 body is shorter, but gc does not unroll even
// constant-trip loops, and a local [W]uint64 that is indexed by a loop
// variable is forced onto the stack. Per gate that costs W loop iterations
// of load/op/store/branch plus vector spills — measured ~3.5x over
// straight-line code at W=4, which erases the whole point of wide lanes.
// These specializations spell out every element, so the per-gate
// interpreter overhead (operand index loads) is genuinely amortized over W
// words. They store each result word straight into the signal plane: a
// [W]uint64 composite literal with more than one element is built in a
// zeroed stack temporary and then copied, which costs the wide widths
// their gain.
//
// settleW evaluates the program over W-word lanes, run by run (see
// program.go): one opcode dispatch per run, then a tight loop with no
// per-gate switch and no force-mask loads. forced lists, ascending, the
// ops whose output carries a fault; their force masks are folded after the
// run that computes them. Ops of one level never read each other, so no
// op can see a forced signal's unforced value.
//
// The differential tests (lanes_test.go) pin all three widths, plane by
// plane, against the scalar evalFaulty oracle in program_test.go, which
// folds the masks at every op; any edit here must keep them passing.

func settle1(p *program, v, f0, f1 [][1]uint64, forced []int32) {
	ops := p.ops
	start := int32(0)
	for _, end := range p.runEnds {
		run := ops[start:end]
		inv := run[0].kind.inv()
		switch run[0].kind &^ 1 {
		case opBuf:
			for i := range run {
				o := &run[i]
				x, d := &v[o.a], &v[o.out]
				d[0] = x[0] ^ inv
			}
		case opAnd2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0]&y[0] ^ inv
			}
		case opOr2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = (x[0] | y[0]) ^ inv
			}
		case opXor2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0] ^ y[0] ^ inv
			}
		case opAnd3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0]&y[0]&z[0] ^ inv
			}
		case opOr3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = (x[0] | y[0] | z[0]) ^ inv
			}
		case opXor3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0] ^ y[0] ^ z[0] ^ inv
			}
		case opMux:
			for i := range run {
				o := &run[i]
				s, lo, hi, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = lo[0]&^s[0] | hi[0]&s[0]
			}
		default:
			settleN(p, run, v)
		}
		for len(forced) > 0 && forced[0] < end {
			o := ops[forced[0]].out
			x, g0, g1 := &v[o], &f0[o], &f1[o]
			x[0] = x[0]&^g0[0] | g1[0]
			forced = forced[1:]
		}
		start = end
	}
}

func settle2(p *program, v, f0, f1 [][2]uint64, forced []int32) {
	ops := p.ops
	start := int32(0)
	for _, end := range p.runEnds {
		run := ops[start:end]
		inv := run[0].kind.inv()
		switch run[0].kind &^ 1 {
		case opBuf:
			for i := range run {
				o := &run[i]
				x, d := &v[o.a], &v[o.out]
				d[0] = x[0] ^ inv
				d[1] = x[1] ^ inv
			}
		case opAnd2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0]&y[0] ^ inv
				d[1] = x[1]&y[1] ^ inv
			}
		case opOr2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = (x[0] | y[0]) ^ inv
				d[1] = (x[1] | y[1]) ^ inv
			}
		case opXor2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0] ^ y[0] ^ inv
				d[1] = x[1] ^ y[1] ^ inv
			}
		case opAnd3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0]&y[0]&z[0] ^ inv
				d[1] = x[1]&y[1]&z[1] ^ inv
			}
		case opOr3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = (x[0] | y[0] | z[0]) ^ inv
				d[1] = (x[1] | y[1] | z[1]) ^ inv
			}
		case opXor3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0] ^ y[0] ^ z[0] ^ inv
				d[1] = x[1] ^ y[1] ^ z[1] ^ inv
			}
		case opMux:
			for i := range run {
				o := &run[i]
				s, lo, hi, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = lo[0]&^s[0] | hi[0]&s[0]
				d[1] = lo[1]&^s[1] | hi[1]&s[1]
			}
		default:
			settleN(p, run, v)
		}
		for len(forced) > 0 && forced[0] < end {
			o := ops[forced[0]].out
			x, g0, g1 := &v[o], &f0[o], &f1[o]
			x[0] = x[0]&^g0[0] | g1[0]
			x[1] = x[1]&^g0[1] | g1[1]
			forced = forced[1:]
		}
		start = end
	}
}

func settle4(p *program, v, f0, f1 [][4]uint64, forced []int32) {
	ops := p.ops
	start := int32(0)
	for _, end := range p.runEnds {
		run := ops[start:end]
		inv := run[0].kind.inv()
		switch run[0].kind &^ 1 {
		case opBuf:
			for i := range run {
				o := &run[i]
				x, d := &v[o.a], &v[o.out]
				d[0] = x[0] ^ inv
				d[1] = x[1] ^ inv
				d[2] = x[2] ^ inv
				d[3] = x[3] ^ inv
			}
		case opAnd2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0]&y[0] ^ inv
				d[1] = x[1]&y[1] ^ inv
				d[2] = x[2]&y[2] ^ inv
				d[3] = x[3]&y[3] ^ inv
			}
		case opOr2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = (x[0] | y[0]) ^ inv
				d[1] = (x[1] | y[1]) ^ inv
				d[2] = (x[2] | y[2]) ^ inv
				d[3] = (x[3] | y[3]) ^ inv
			}
		case opXor2:
			for i := range run {
				o := &run[i]
				x, y, d := &v[o.a], &v[o.b], &v[o.out]
				d[0] = x[0] ^ y[0] ^ inv
				d[1] = x[1] ^ y[1] ^ inv
				d[2] = x[2] ^ y[2] ^ inv
				d[3] = x[3] ^ y[3] ^ inv
			}
		case opAnd3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0]&y[0]&z[0] ^ inv
				d[1] = x[1]&y[1]&z[1] ^ inv
				d[2] = x[2]&y[2]&z[2] ^ inv
				d[3] = x[3]&y[3]&z[3] ^ inv
			}
		case opOr3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = (x[0] | y[0] | z[0]) ^ inv
				d[1] = (x[1] | y[1] | z[1]) ^ inv
				d[2] = (x[2] | y[2] | z[2]) ^ inv
				d[3] = (x[3] | y[3] | z[3]) ^ inv
			}
		case opXor3:
			for i := range run {
				o := &run[i]
				x, y, z, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = x[0] ^ y[0] ^ z[0] ^ inv
				d[1] = x[1] ^ y[1] ^ z[1] ^ inv
				d[2] = x[2] ^ y[2] ^ z[2] ^ inv
				d[3] = x[3] ^ y[3] ^ z[3] ^ inv
			}
		case opMux:
			for i := range run {
				o := &run[i]
				s, lo, hi, d := &v[o.a], &v[o.b], &v[o.c], &v[o.out]
				d[0] = lo[0]&^s[0] | hi[0]&s[0]
				d[1] = lo[1]&^s[1] | hi[1]&s[1]
				d[2] = lo[2]&^s[2] | hi[2]&s[2]
				d[3] = lo[3]&^s[3] | hi[3]&s[3]
			}
		default:
			settleN(p, run, v)
		}
		for len(forced) > 0 && forced[0] < end {
			o := ops[forced[0]].out
			x, g0, g1 := &v[o], &f0[o], &f1[o]
			x[0] = x[0]&^g0[0] | g1[0]
			x[1] = x[1]&^g0[1] | g1[1]
			x[2] = x[2]&^g0[2] | g1[2]
			x[3] = x[3]&^g0[3] | g1[3]
			forced = forced[1:]
		}
		start = end
	}
}

// settleN evaluates a run of gates with fanin >= 4 plane by plane. They
// are rare enough in ISCAS89-style netlists that the generic word loop
// costs nothing measurable.
func settleN[W lanevec](p *program, run []op, v []W) {
	var w W
	inv, fam := run[0].kind.inv(), run[0].kind&^1
	for i := range run {
		o := &run[i]
		fan := p.arena[o.a:o.b]
		for j := range len(w) {
			var r uint64
			switch fam {
			case opAndN:
				r = ^uint64(0)
				for _, f := range fan {
					r &= v[f][j]
				}
			case opOrN:
				for _, f := range fan {
					r |= v[f][j]
				}
			default: // opXorN
				for _, f := range fan {
					r ^= v[f][j]
				}
			}
			v[o.out][j] = r ^ inv
		}
	}
}

// The cycle specializations below are one clock each, in the order
// laneEngine.cycle documents, with the same constant-index treatment as
// the eval kernels: the drive/detect/latch loops run once per clock and,
// written generically, cost more than the settle they wrap.

func cycle1(e *laneEngine[[1]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
		d[0] = w&^g0[0] | g1[0]
	}
	settle1(sg.prog, v, f0, f1, e.forced)
	if e.tap != nil {
		e.sample()
	}
	if detect {
		d0 := e.det[0]
		for _, sig := range sg.outputs {
			o := &v[sig]
			ref := -(o[0] & 1) // fault-free lane broadcast
			d0 |= o[0] ^ ref
		}
		e.det = [1]uint64{d0 & e.want[0]}
	}
	for i := range sg.dffs {
		d := &sg.dffs[i]
		x, q, g0, g1 := &v[d.in], &v[d.out], &f0[d.out], &f1[d.out]
		q[0] = x[0]&^g0[0] | g1[0]
	}
}

func cycle2(e *laneEngine[[2]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
		d[0] = w&^g0[0] | g1[0]
		d[1] = w&^g0[1] | g1[1]
	}
	settle2(sg.prog, v, f0, f1, e.forced)
	if e.tap != nil {
		e.sample()
	}
	if detect {
		d0, d1 := e.det[0], e.det[1]
		for _, sig := range sg.outputs {
			o := &v[sig]
			ref := -(o[0] & 1)
			d0 |= o[0] ^ ref
			d1 |= o[1] ^ ref
		}
		e.det = [2]uint64{d0 & e.want[0], d1 & e.want[1]}
	}
	for i := range sg.dffs {
		d := &sg.dffs[i]
		x, q, g0, g1 := &v[d.in], &v[d.out], &f0[d.out], &f1[d.out]
		q[0] = x[0]&^g0[0] | g1[0]
		q[1] = x[1]&^g0[1] | g1[1]
	}
}

func cycle4(e *laneEngine[[4]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
		d[0] = w&^g0[0] | g1[0]
		d[1] = w&^g0[1] | g1[1]
		d[2] = w&^g0[2] | g1[2]
		d[3] = w&^g0[3] | g1[3]
	}
	settle4(sg.prog, v, f0, f1, e.forced)
	if e.tap != nil {
		e.sample()
	}
	if detect {
		d0, d1, d2, d3 := e.det[0], e.det[1], e.det[2], e.det[3]
		for _, sig := range sg.outputs {
			o := &v[sig]
			ref := -(o[0] & 1)
			d0 |= o[0] ^ ref
			d1 |= o[1] ^ ref
			d2 |= o[2] ^ ref
			d3 |= o[3] ^ ref
		}
		e.det = [4]uint64{d0 & e.want[0], d1 & e.want[1], d2 & e.want[2], d3 & e.want[3]}
	}
	for i := range sg.dffs {
		d := &sg.dffs[i]
		x, q, g0, g1 := &v[d.in], &v[d.out], &f0[d.out], &f1[d.out]
		q[0] = x[0]&^g0[0] | g1[0]
		q[1] = x[1]&^g0[1] | g1[1]
		q[2] = x[2]&^g0[2] | g1[2]
		q[3] = x[3]&^g0[3] | g1[3]
	}
}
