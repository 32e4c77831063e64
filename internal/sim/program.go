package sim

// This file is the flattened opcode program shared by Evaluator and
// Segment, and the fault-free scalar evaluator Evaluator runs; segments
// run the wide kernels in wide_unroll.go. The levelized gate list is
// compiled once into a structure-of-arrays opcode stream: parallel
// kind/out/a/b arrays plus a
// contiguous fanin-index arena for gates with more than two inputs. The
// interpreter loop then touches only dense int32 arrays — no per-gate
// fanin slice headers, no netlist.GateType re-dispatch through nested
// loops — which is what makes 2^l_k-cycle fault campaigns tractable.
//
// One- and two-input gates (the overwhelming majority of ISCAS89 cells)
// get specialized opcodes whose operands live directly in a/b; N-input
// gates fall back to an arena scan. Single-input AND/OR/XOR collapse to
// BUF, single-input NAND/NOR/XNOR to NOT, so the fallback opcodes only
// ever see fanin >= 3.

import "repro/internal/netlist"

type opKind uint8

const (
	opBuf opKind = iota
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opMux // arena[a : a+3] = sel, d0, d1
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// program is a compiled combinational evaluation order in SoA form.
// kind[i] selects the kernel; out[i] is the destination signal; a[i]/b[i]
// are the operand signals for 1- and 2-input kinds, or the arena range
// [a[i]:b[i]) for N-input kinds (opMux uses arena[a[i]:a[i]+3]).
type program struct {
	kind  []opKind
	out   []int32
	a, b  []int32
	arena []int32
}

// compileProgram flattens a topologically ordered gate list.
func compileProgram(order []gateOp) *program {
	p := &program{
		kind: make([]opKind, 0, len(order)),
		out:  make([]int32, 0, len(order)),
		a:    make([]int32, 0, len(order)),
		b:    make([]int32, 0, len(order)),
	}
	emit := func(k opKind, out int, a, b int32) {
		p.kind = append(p.kind, k)
		p.out = append(p.out, int32(out))
		p.a = append(p.a, a)
		p.b = append(p.b, b)
	}
	spill := func(fanin []int) (int32, int32) {
		start := int32(len(p.arena))
		for _, f := range fanin {
			p.arena = append(p.arena, int32(f))
		}
		return start, int32(len(p.arena))
	}
	for _, g := range order {
		n := len(g.fanin)
		switch g.typ {
		case netlist.Not:
			emit(opNot, g.out, int32(g.fanin[0]), 0)
		case netlist.Buf, netlist.DFF:
			emit(opBuf, g.out, int32(g.fanin[0]), 0)
		case netlist.Mux:
			a, _ := spill(g.fanin)
			emit(opMux, g.out, a, 0)
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			inverted := g.typ == netlist.Nand || g.typ == netlist.Nor || g.typ == netlist.Xnor
			switch {
			case n == 1 && inverted:
				emit(opNot, g.out, int32(g.fanin[0]), 0)
			case n == 1:
				emit(opBuf, g.out, int32(g.fanin[0]), 0)
			case n == 2:
				var k opKind
				switch g.typ {
				case netlist.And:
					k = opAnd2
				case netlist.Nand:
					k = opNand2
				case netlist.Or:
					k = opOr2
				case netlist.Nor:
					k = opNor2
				case netlist.Xor:
					k = opXor2
				default:
					k = opXnor2
				}
				emit(k, g.out, int32(g.fanin[0]), int32(g.fanin[1]))
			default:
				var k opKind
				switch g.typ {
				case netlist.And:
					k = opAndN
				case netlist.Nand:
					k = opNandN
				case netlist.Or:
					k = opOrN
				case netlist.Nor:
					k = opNorN
				case netlist.Xor:
					k = opXorN
				default:
					k = opXnorN
				}
				a, b := spill(g.fanin)
				emit(k, g.out, a, b)
			}
		default:
			// Unknown gate types evaluate to constant 0 (empty OR),
			// matching the historical evalGate fallback.
			emit(opOrN, g.out, 0, 0)
		}
	}
	return p
}

// eval runs the whole program over v (fault-free). The switch is inlined
// in the loop (rather than factored into a per-op helper) so the compiler
// keeps the kind/a/b/out slice headers in registers across iterations.
func (p *program) eval(v []uint64) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	for i, k := range kind {
		var r uint64
		switch k {
		case opBuf:
			r = v[a[i]]
		case opNot:
			r = ^v[a[i]]
		case opAnd2:
			r = v[a[i]] & v[b[i]]
		case opNand2:
			r = ^(v[a[i]] & v[b[i]])
		case opOr2:
			r = v[a[i]] | v[b[i]]
		case opNor2:
			r = ^(v[a[i]] | v[b[i]])
		case opXor2:
			r = v[a[i]] ^ v[b[i]]
		case opXnor2:
			r = ^(v[a[i]] ^ v[b[i]])
		default:
			r = p.wide(k, i, v)
		}
		v[out[i]] = r
	}
}

// wide evaluates the uncommon opcodes: MUX and gates with fanin >= 3.
func (p *program) wide(k opKind, i int, v []uint64) uint64 {
	switch k {
	case opMux:
		m := p.arena[p.a[i] : p.a[i]+3 : p.a[i]+3]
		sel := v[m[0]]
		return (v[m[1]] &^ sel) | (v[m[2]] & sel)
	case opAndN, opNandN:
		r := ^uint64(0)
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r &= v[f]
		}
		if k == opNandN {
			return ^r
		}
		return r
	case opOrN, opNorN:
		r := uint64(0)
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r |= v[f]
		}
		if k == opNorN {
			return ^r
		}
		return r
	default: // opXorN, opXnorN
		r := uint64(0)
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r ^= v[f]
		}
		if k == opXnorN {
			return ^r
		}
		return r
	}
}
