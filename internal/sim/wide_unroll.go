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

// The clock specializations below are one clock each, in the order
// engine.cycle documents, split where cycle checks pending faults:
// settleClockN drives the inputs and settles, latchClockN detects and
// latches. They get the same constant-index treatment as the eval
// kernels: the drive/detect/latch loops run once per clock and, written
// generically, cost more than the settle they wrap.
//
// The drive gives each session group its own session's pattern bit: a
// word holds 64/g groups, and (b0 | b1<<g | ...) * fill spreads session
// bit bt over group t (Go shifts of 64 or more give 0, so the terms past
// a word's groups vanish). At g = 64 that is -(b0), one session a word;
// the fault-parallel layout drives every word from the same pattern.
// The detection compare takes its fault-free reference from bit 0 of
// word 0 in the fault-parallel layout and from bit 0 of each group in
// the session layout, spread over the group by (o&low)*fill; -(o&1) is
// the g = 64 case. The latch is two-phase: every D is copied into b.next
// before any Q is written, so a flip-flop fed by another flip-flop's Q
// takes its pre-clock value.

func settleClock1(b *bank[[1]uint64]) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	p0, p1, p2, p3 := b.pat[0], b.pat[1], b.pat[2], b.pat[3]
	if g, fill := b.group, b.fill; g < 64 {
		for i, sig := range sg.inputs {
			s := uint(i)
			w := (p0>>s&1 | p1>>s&1<<g | p2>>s&1<<(2*g) | p3>>s&1<<(3*g)) * fill
			d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
			d[0] = w&^g0[0] | g1[0]
		}
	} else {
		for i, sig := range sg.inputs {
			w := -(p0 >> uint(i) & 1)
			d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
			d[0] = w&^g0[0] | g1[0]
		}
	}
	settle1(sg.prog, v, f0, f1, b.forced)
}

func latchClock1(b *bank[[1]uint64], detect bool) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	if detect {
		d0 := b.det[0]
		if low, fill := b.low, b.fill; low != 1 {
			for _, sig := range sg.outputs {
				o := &v[sig]
				d0 |= o[0] ^ (o[0]&low)*fill
			}
		} else {
			for _, sig := range sg.outputs {
				o := &v[sig]
				d0 |= o[0] ^ -(o[0] & 1)
			}
		}
		b.det = [1]uint64{d0 & b.want[0]}
	}
	next := b.next
	for i := range sg.dffs {
		next[i] = v[sg.dffs[i].in]
	}
	for i := range sg.dffs {
		o := sg.dffs[i].out
		x, q, g0, g1 := &next[i], &v[o], &f0[o], &f1[o]
		q[0] = x[0]&^g0[0] | g1[0]
	}
}

func settleClock2(b *bank[[2]uint64]) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	p0, p1, p2, p3 := b.pat[0], b.pat[1], b.pat[2], b.pat[3]
	if fill := b.fill; b.group == 32 {
		for i, sig := range sg.inputs {
			s := uint(i)
			w0, w1 := (p0>>s&1|p1>>s&1<<32)*fill, (p2>>s&1|p3>>s&1<<32)*fill
			d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
			d[0] = w0&^g0[0] | g1[0]
			d[1] = w1&^g0[1] | g1[1]
		}
	} else {
		for i, sig := range sg.inputs {
			w0, w1 := -(p0 >> uint(i) & 1), -(p1 >> uint(i) & 1)
			d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
			d[0] = w0&^g0[0] | g1[0]
			d[1] = w1&^g0[1] | g1[1]
		}
	}
	settle2(sg.prog, v, f0, f1, b.forced)
}

func latchClock2(b *bank[[2]uint64], detect bool) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	if detect {
		d0, d1 := b.det[0], b.det[1]
		switch low, fill := b.low, b.fill; {
		case b.fp:
			for _, sig := range sg.outputs {
				o := &v[sig]
				ref := -(o[0] & 1)
				d0 |= o[0] ^ ref
				d1 |= o[1] ^ ref
			}
		case low != 1:
			for _, sig := range sg.outputs {
				o := &v[sig]
				d0 |= o[0] ^ (o[0]&low)*fill
				d1 |= o[1] ^ (o[1]&low)*fill
			}
		default:
			for _, sig := range sg.outputs {
				o := &v[sig]
				d0 |= o[0] ^ -(o[0] & 1)
				d1 |= o[1] ^ -(o[1] & 1)
			}
		}
		b.det = [2]uint64{d0 & b.want[0], d1 & b.want[1]}
	}
	next := b.next
	for i := range sg.dffs {
		next[i] = v[sg.dffs[i].in]
	}
	for i := range sg.dffs {
		o := sg.dffs[i].out
		x, q, g0, g1 := &next[i], &v[o], &f0[o], &f1[o]
		q[0] = x[0]&^g0[0] | g1[0]
		q[1] = x[1]&^g0[1] | g1[1]
	}
}

func settleClock4(b *bank[[4]uint64]) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	p0, p1, p2, p3 := b.pat[0], b.pat[1], b.pat[2], b.pat[3]
	for i, sig := range sg.inputs {
		s := uint(i)
		w0, w1, w2, w3 := -(p0 >> s & 1), -(p1 >> s & 1), -(p2 >> s & 1), -(p3 >> s & 1)
		d, g0, g1 := &v[sig], &f0[sig], &f1[sig]
		d[0] = w0&^g0[0] | g1[0]
		d[1] = w1&^g0[1] | g1[1]
		d[2] = w2&^g0[2] | g1[2]
		d[3] = w3&^g0[3] | g1[3]
	}
	settle4(sg.prog, v, f0, f1, b.forced)
}

func latchClock4(b *bank[[4]uint64], detect bool) {
	sg := b.sgmt
	v, f0, f1 := b.v, b.force0, b.force1
	if detect {
		d0, d1, d2, d3 := b.det[0], b.det[1], b.det[2], b.det[3]
		if b.fp {
			for _, sig := range sg.outputs {
				o := &v[sig]
				ref := -(o[0] & 1)
				d0 |= o[0] ^ ref
				d1 |= o[1] ^ ref
				d2 |= o[2] ^ ref
				d3 |= o[3] ^ ref
			}
		} else {
			for _, sig := range sg.outputs {
				o := &v[sig]
				d0 |= o[0] ^ -(o[0] & 1)
				d1 |= o[1] ^ -(o[1] & 1)
				d2 |= o[2] ^ -(o[2] & 1)
				d3 |= o[3] ^ -(o[3] & 1)
			}
		}
		b.det = [4]uint64{d0 & b.want[0], d1 & b.want[1], d2 & b.want[2], d3 & b.want[3]}
	}
	next := b.next
	for i := range sg.dffs {
		next[i] = v[sg.dffs[i].in]
	}
	for i := range sg.dffs {
		o := sg.dffs[i].out
		x, q, g0, g1 := &next[i], &v[o], &f0[o], &f1[o]
		q[0] = x[0]&^g0[0] | g1[0]
		q[1] = x[1]&^g0[1] | g1[1]
		q[2] = x[2]&^g0[2] | g1[2]
		q[3] = x[3]&^g0[3] | g1[3]
	}
}

// excitedN is the excitation scan of a session-layout batch with faults
// pending: it runs after every settle, over every pending fault, so it
// gets the same constant-index treatment, and reports whether some site
// reads its awaited value on the reference bit of some group (low has
// those bits of a word set; at four words the groups are 64 bits wide).
// engine.admit then hands out the lanes.
func excited1(v [][1]uint64, sites []pendSite, low uint64) bool {
	for _, s := range sites {
		if (v[s.sig][0]^s.inv)&low != 0 {
			return true
		}
	}
	return false
}

func excited2(v [][2]uint64, sites []pendSite, low uint64) bool {
	for _, s := range sites {
		x := &v[s.sig]
		if ((x[0]^s.inv)|(x[1]^s.inv))&low != 0 {
			return true
		}
	}
	return false
}

func excited4(v [][4]uint64, sites []pendSite) bool {
	for _, s := range sites {
		x := &v[s.sig]
		if ((x[0]^s.inv)|(x[1]^s.inv)|(x[2]^s.inv)|(x[3]^s.inv))&1 != 0 {
			return true
		}
	}
	return false
}
