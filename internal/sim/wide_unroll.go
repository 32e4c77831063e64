package sim

// Hand-unrolled width specializations of the fault-simulation kernel, the
// only one that ships.
//
// A generic [W]uint64 body is shorter, but gc does not unroll even
// constant-trip loops, and a local [W]uint64 that is indexed by a loop
// variable is forced onto the stack. Per gate that costs W loop iterations
// of load/op/store/branch plus vector spills — measured ~3.5x over
// straight-line code at W=4, which erases the whole point of wide lanes.
// These specializations keep every element in a named scalar (r0..rW-1),
// so the compiler holds the vector in registers and the per-gate
// interpreter overhead (opcode dispatch, operand index loads) is genuinely
// amortized over W words.
//
// Each function evaluates the same opcode set with the same force-mask
// fold on every destination. The differential tests (lanes_test.go) pin
// all four, plane by plane, against the scalar evalFaulty oracle in
// program_test.go; any edit here must keep them passing.

func evalFaulty1(p *program, v, force0, force1 [][1]uint64) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	arena := p.arena
	for i, k := range kind {
		var r0 uint64
		switch k {
		case opBuf:
			r0 = v[a[i]][0]
		case opNot:
			r0 = ^v[a[i]][0]
		case opAnd2:
			r0 = v[a[i]][0] & v[b[i]][0]
		case opNand2:
			r0 = ^(v[a[i]][0] & v[b[i]][0])
		case opOr2:
			r0 = v[a[i]][0] | v[b[i]][0]
		case opNor2:
			r0 = ^(v[a[i]][0] | v[b[i]][0])
		case opXor2:
			r0 = v[a[i]][0] ^ v[b[i]][0]
		case opXnor2:
			r0 = ^(v[a[i]][0] ^ v[b[i]][0])
		case opAndN, opNandN:
			r0 = ^uint64(0)
			for _, f := range arena[a[i]:b[i]] {
				r0 &= v[f][0]
			}
			if k == opNandN {
				r0 = ^r0
			}
		case opOrN, opNorN:
			for _, f := range arena[a[i]:b[i]] {
				r0 |= v[f][0]
			}
			if k == opNorN {
				r0 = ^r0
			}
		case opMux:
			m := arena[a[i] : a[i]+3 : a[i]+3]
			s := v[m[0]][0]
			r0 = (v[m[1]][0] &^ s) | (v[m[2]][0] & s)
		default: // opXorN, opXnorN
			for _, f := range arena[a[i]:b[i]] {
				r0 ^= v[f][0]
			}
			if k == opXnorN {
				r0 = ^r0
			}
		}
		o := out[i]
		g0, g1 := &force0[o], &force1[o]
		v[o] = [1]uint64{(r0 &^ g0[0]) | g1[0]}
	}
}

func evalFaulty2(p *program, v, force0, force1 [][2]uint64) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	arena := p.arena
	for i, k := range kind {
		var r0, r1 uint64
		switch k {
		case opBuf:
			x := &v[a[i]]
			r0, r1 = x[0], x[1]
		case opNot:
			x := &v[a[i]]
			r0, r1 = ^x[0], ^x[1]
		case opAnd2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = x[0]&y[0], x[1]&y[1]
		case opNand2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = ^(x[0]&y[0]), ^(x[1]&y[1])
		case opOr2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = x[0]|y[0], x[1]|y[1]
		case opNor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = ^(x[0]|y[0]), ^(x[1]|y[1])
		case opXor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = x[0]^y[0], x[1]^y[1]
		case opXnor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1 = ^(x[0]^y[0]), ^(x[1]^y[1])
		case opAndN, opNandN:
			r0, r1 = ^uint64(0), ^uint64(0)
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 &= x[0]
				r1 &= x[1]
			}
			if k == opNandN {
				r0, r1 = ^r0, ^r1
			}
		case opOrN, opNorN:
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 |= x[0]
				r1 |= x[1]
			}
			if k == opNorN {
				r0, r1 = ^r0, ^r1
			}
		case opMux:
			m := arena[a[i] : a[i]+3 : a[i]+3]
			s, d0, d1 := &v[m[0]], &v[m[1]], &v[m[2]]
			r0 = (d0[0] &^ s[0]) | (d1[0] & s[0])
			r1 = (d0[1] &^ s[1]) | (d1[1] & s[1])
		default: // opXorN, opXnorN
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 ^= x[0]
				r1 ^= x[1]
			}
			if k == opXnorN {
				r0, r1 = ^r0, ^r1
			}
		}
		o := out[i]
		g0, g1 := &force0[o], &force1[o]
		v[o] = [2]uint64{
			(r0 &^ g0[0]) | g1[0],
			(r1 &^ g0[1]) | g1[1],
		}
	}
}

func evalFaulty4(p *program, v, force0, force1 [][4]uint64) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	arena := p.arena
	for i, k := range kind {
		var r0, r1, r2, r3 uint64
		switch k {
		case opBuf:
			x := &v[a[i]]
			r0, r1, r2, r3 = x[0], x[1], x[2], x[3]
		case opNot:
			x := &v[a[i]]
			r0, r1, r2, r3 = ^x[0], ^x[1], ^x[2], ^x[3]
		case opAnd2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
		case opNand2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]&y[0]), ^(x[1]&y[1]), ^(x[2]&y[2]), ^(x[3]&y[3])
		case opOr2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
		case opNor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]|y[0]), ^(x[1]|y[1]), ^(x[2]|y[2]), ^(x[3]|y[3])
		case opXor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
		case opXnor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]^y[0]), ^(x[1]^y[1]), ^(x[2]^y[2]), ^(x[3]^y[3])
		case opAndN, opNandN:
			r0, r1, r2, r3 = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 &= x[0]
				r1 &= x[1]
				r2 &= x[2]
				r3 &= x[3]
			}
			if k == opNandN {
				r0, r1, r2, r3 = ^r0, ^r1, ^r2, ^r3
			}
		case opOrN, opNorN:
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 |= x[0]
				r1 |= x[1]
				r2 |= x[2]
				r3 |= x[3]
			}
			if k == opNorN {
				r0, r1, r2, r3 = ^r0, ^r1, ^r2, ^r3
			}
		case opMux:
			m := arena[a[i] : a[i]+3 : a[i]+3]
			s, d0, d1 := &v[m[0]], &v[m[1]], &v[m[2]]
			r0 = (d0[0] &^ s[0]) | (d1[0] & s[0])
			r1 = (d0[1] &^ s[1]) | (d1[1] & s[1])
			r2 = (d0[2] &^ s[2]) | (d1[2] & s[2])
			r3 = (d0[3] &^ s[3]) | (d1[3] & s[3])
		default: // opXorN, opXnorN
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 ^= x[0]
				r1 ^= x[1]
				r2 ^= x[2]
				r3 ^= x[3]
			}
			if k == opXnorN {
				r0, r1, r2, r3 = ^r0, ^r1, ^r2, ^r3
			}
		}
		o := out[i]
		g0, g1 := &force0[o], &force1[o]
		v[o] = [4]uint64{
			(r0 &^ g0[0]) | g1[0],
			(r1 &^ g0[1]) | g1[1],
			(r2 &^ g0[2]) | g1[2],
			(r3 &^ g0[3]) | g1[3],
		}
	}
}

func evalFaulty8(p *program, v, force0, force1 [][8]uint64) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	arena := p.arena
	for i, k := range kind {
		var r0, r1, r2, r3, r4, r5, r6, r7 uint64
		switch k {
		case opBuf:
			x := &v[a[i]]
			r0, r1, r2, r3, r4, r5, r6, r7 = x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
		case opNot:
			x := &v[a[i]]
			r0, r1, r2, r3, r4, r5, r6, r7 = ^x[0], ^x[1], ^x[2], ^x[3], ^x[4], ^x[5], ^x[6], ^x[7]
		case opAnd2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
			r4, r5, r6, r7 = x[4]&y[4], x[5]&y[5], x[6]&y[6], x[7]&y[7]
		case opNand2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]&y[0]), ^(x[1]&y[1]), ^(x[2]&y[2]), ^(x[3]&y[3])
			r4, r5, r6, r7 = ^(x[4]&y[4]), ^(x[5]&y[5]), ^(x[6]&y[6]), ^(x[7]&y[7])
		case opOr2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
			r4, r5, r6, r7 = x[4]|y[4], x[5]|y[5], x[6]|y[6], x[7]|y[7]
		case opNor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]|y[0]), ^(x[1]|y[1]), ^(x[2]|y[2]), ^(x[3]|y[3])
			r4, r5, r6, r7 = ^(x[4]|y[4]), ^(x[5]|y[5]), ^(x[6]|y[6]), ^(x[7]|y[7])
		case opXor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
			r4, r5, r6, r7 = x[4]^y[4], x[5]^y[5], x[6]^y[6], x[7]^y[7]
		case opXnor2:
			x, y := &v[a[i]], &v[b[i]]
			r0, r1, r2, r3 = ^(x[0]^y[0]), ^(x[1]^y[1]), ^(x[2]^y[2]), ^(x[3]^y[3])
			r4, r5, r6, r7 = ^(x[4]^y[4]), ^(x[5]^y[5]), ^(x[6]^y[6]), ^(x[7]^y[7])
		case opAndN, opNandN:
			r0, r1, r2, r3 = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			r4, r5, r6, r7 = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 &= x[0]
				r1 &= x[1]
				r2 &= x[2]
				r3 &= x[3]
				r4 &= x[4]
				r5 &= x[5]
				r6 &= x[6]
				r7 &= x[7]
			}
			if k == opNandN {
				r0, r1, r2, r3, r4, r5, r6, r7 = ^r0, ^r1, ^r2, ^r3, ^r4, ^r5, ^r6, ^r7
			}
		case opOrN, opNorN:
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 |= x[0]
				r1 |= x[1]
				r2 |= x[2]
				r3 |= x[3]
				r4 |= x[4]
				r5 |= x[5]
				r6 |= x[6]
				r7 |= x[7]
			}
			if k == opNorN {
				r0, r1, r2, r3, r4, r5, r6, r7 = ^r0, ^r1, ^r2, ^r3, ^r4, ^r5, ^r6, ^r7
			}
		case opMux:
			m := arena[a[i] : a[i]+3 : a[i]+3]
			s, d0, d1 := &v[m[0]], &v[m[1]], &v[m[2]]
			r0 = (d0[0] &^ s[0]) | (d1[0] & s[0])
			r1 = (d0[1] &^ s[1]) | (d1[1] & s[1])
			r2 = (d0[2] &^ s[2]) | (d1[2] & s[2])
			r3 = (d0[3] &^ s[3]) | (d1[3] & s[3])
			r4 = (d0[4] &^ s[4]) | (d1[4] & s[4])
			r5 = (d0[5] &^ s[5]) | (d1[5] & s[5])
			r6 = (d0[6] &^ s[6]) | (d1[6] & s[6])
			r7 = (d0[7] &^ s[7]) | (d1[7] & s[7])
		default: // opXorN, opXnorN
			for _, f := range arena[a[i]:b[i]] {
				x := &v[f]
				r0 ^= x[0]
				r1 ^= x[1]
				r2 ^= x[2]
				r3 ^= x[3]
				r4 ^= x[4]
				r5 ^= x[5]
				r6 ^= x[6]
				r7 ^= x[7]
			}
			if k == opXnorN {
				r0, r1, r2, r3, r4, r5, r6, r7 = ^r0, ^r1, ^r2, ^r3, ^r4, ^r5, ^r6, ^r7
			}
		}
		o := out[i]
		g0, g1 := &force0[o], &force1[o]
		v[o] = [8]uint64{
			(r0 &^ g0[0]) | g1[0],
			(r1 &^ g0[1]) | g1[1],
			(r2 &^ g0[2]) | g1[2],
			(r3 &^ g0[3]) | g1[3],
			(r4 &^ g0[4]) | g1[4],
			(r5 &^ g0[5]) | g1[5],
			(r6 &^ g0[6]) | g1[6],
			(r7 &^ g0[7]) | g1[7],
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
		g0, g1 := &f0[sig], &f1[sig]
		v[sig] = [1]uint64{(w &^ g0[0]) | g1[0]}
	}
	evalFaulty1(sg.prog, v, f0, f1)
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
		x := &v[d.in]
		g0, g1 := &f0[d.out], &f1[d.out]
		v[d.out] = [1]uint64{(x[0] &^ g0[0]) | g1[0]}
	}
}

func cycle2(e *laneEngine[[2]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		g0, g1 := &f0[sig], &f1[sig]
		v[sig] = [2]uint64{
			(w &^ g0[0]) | g1[0],
			(w &^ g0[1]) | g1[1],
		}
	}
	evalFaulty2(sg.prog, v, f0, f1)
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
		x := &v[d.in]
		g0, g1 := &f0[d.out], &f1[d.out]
		v[d.out] = [2]uint64{
			(x[0] &^ g0[0]) | g1[0],
			(x[1] &^ g0[1]) | g1[1],
		}
	}
}

func cycle4(e *laneEngine[[4]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		g0, g1 := &f0[sig], &f1[sig]
		v[sig] = [4]uint64{
			(w &^ g0[0]) | g1[0],
			(w &^ g0[1]) | g1[1],
			(w &^ g0[2]) | g1[2],
			(w &^ g0[3]) | g1[3],
		}
	}
	evalFaulty4(sg.prog, v, f0, f1)
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
		x := &v[d.in]
		g0, g1 := &f0[d.out], &f1[d.out]
		v[d.out] = [4]uint64{
			(x[0] &^ g0[0]) | g1[0],
			(x[1] &^ g0[1]) | g1[1],
			(x[2] &^ g0[2]) | g1[2],
			(x[3] &^ g0[3]) | g1[3],
		}
	}
}

func cycle8(e *laneEngine[[8]uint64], pattern uint64, detect bool) {
	sg := e.sgmt
	v, f0, f1 := e.v, e.force0, e.force1
	for i, sig := range sg.inputs {
		w := -(pattern >> uint(i) & 1)
		g0, g1 := &f0[sig], &f1[sig]
		v[sig] = [8]uint64{
			(w &^ g0[0]) | g1[0],
			(w &^ g0[1]) | g1[1],
			(w &^ g0[2]) | g1[2],
			(w &^ g0[3]) | g1[3],
			(w &^ g0[4]) | g1[4],
			(w &^ g0[5]) | g1[5],
			(w &^ g0[6]) | g1[6],
			(w &^ g0[7]) | g1[7],
		}
	}
	evalFaulty8(sg.prog, v, f0, f1)
	if e.tap != nil {
		e.sample()
	}
	if detect {
		d0, d1, d2, d3 := e.det[0], e.det[1], e.det[2], e.det[3]
		d4, d5, d6, d7 := e.det[4], e.det[5], e.det[6], e.det[7]
		for _, sig := range sg.outputs {
			o := &v[sig]
			ref := -(o[0] & 1)
			d0 |= o[0] ^ ref
			d1 |= o[1] ^ ref
			d2 |= o[2] ^ ref
			d3 |= o[3] ^ ref
			d4 |= o[4] ^ ref
			d5 |= o[5] ^ ref
			d6 |= o[6] ^ ref
			d7 |= o[7] ^ ref
		}
		e.det = [8]uint64{
			d0 & e.want[0], d1 & e.want[1], d2 & e.want[2], d3 & e.want[3],
			d4 & e.want[4], d5 & e.want[5], d6 & e.want[6], d7 & e.want[7],
		}
	}
	for i := range sg.dffs {
		d := &sg.dffs[i]
		x := &v[d.in]
		g0, g1 := &f0[d.out], &f1[d.out]
		v[d.out] = [8]uint64{
			(x[0] &^ g0[0]) | g1[0],
			(x[1] &^ g0[1]) | g1[1],
			(x[2] &^ g0[2]) | g1[2],
			(x[3] &^ g0[3]) | g1[3],
			(x[4] &^ g0[4]) | g1[4],
			(x[5] &^ g0[5]) | g1[5],
			(x[6] &^ g0[6]) | g1[6],
			(x[7] &^ g0[7]) | g1[7],
		}
	}
}
