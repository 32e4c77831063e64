package sim

// This file is a Segment's flattened opcode program and its fault-free
// scalar evaluator, which the scalar machine (sim.go) and the excitation
// pre-pass (excite.go) run; fault simulation runs the wide kernels in
// wide_unroll.go. The gate list is compiled once
// into one slice of op records {kind, out, a, b, c} plus a contiguous
// fanin-index arena for gates with more than three inputs, so the
// interpreter loops touch only dense int32 operands — no per-gate fanin
// slice headers, no netlist.GateType re-dispatch.
//
// Program order is (level, opcode): any topological order computes the
// same values, and this one groups the ops into runs of one opcode that
// never span a level. The lane kernels dispatch once per run, and because
// the ops of one level never read each other, a run's fault force masks
// can be folded after the whole run has been evaluated.
//
// Gates of up to three inputs, MUX included, get inline opcodes whose
// operands live directly in a/b/c; wider gates scan the arena range
// [a:b). Single-input AND/OR/XOR collapse to BUF and single-input
// NAND/NOR/XNOR to NOT.

import "repro/internal/netlist"

// opKind numbers the opcodes in (plain, inverted) pairs: the low bit says
// the result is complemented, and kind &^ 1 names the pair's operation, so
// a kernel runs both members of a pair with one loop and an XOR mask.
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
	opAnd3
	opNand3
	opOr3
	opNor3
	opXor3
	opXnor3
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
	opMux // a = sel, b = d0, c = d1
)

// inv is the all-ones XOR mask for the inverted member of a pair, else 0.
func (k opKind) inv() uint64 { return -uint64(k & 1) }

// op is one compiled gate: out is the destination signal, a/b/c the
// operand signals for inline kinds, or the arena range [a:b) for the N
// kinds.
type op struct {
	kind         opKind
	out, a, b, c int32
}

// program is a compiled combinational evaluation order. ops is sorted by
// (level, kind); runEnds[r] is the exclusive end of run r, a maximal
// stretch of one kind within one level.
type program struct {
	ops     []op
	runEnds []int32
	arena   []int32
}

// numKinds is the opcode count.
const numKinds = int(opMux) + 1

// gateKinds maps a gate type to its 2-input, 3-input and N-input opcodes.
var gateKinds = [...][3]opKind{
	netlist.And:  {opAnd2, opAnd3, opAndN},
	netlist.Nand: {opNand2, opNand3, opNandN},
	netlist.Or:   {opOr2, opOr3, opOrN},
	netlist.Nor:  {opNor2, opNor3, opNorN},
	netlist.Xor:  {opXor2, opXor3, opXorN},
	netlist.Xnor: {opXnor2, opXnor3, opXnorN},
}

// compileProgram flattens a topologically ordered gate list over nsig
// signals and reorders it by (level, opcode), where a gate's level is one
// more than the deepest gate it reads (signals no gate drives are level 0).
func compileProgram(order []gateOp, nsig int) *program {
	level := make([]int32, nsig) // signal -> level of the gate driving it
	maxLevel := int32(0)
	ops := make([]op, len(order))
	var arena []int32
	for gi, g := range order {
		for _, f := range g.fanin {
			level[g.out] = max(level[g.out], level[f]+1)
		}
		maxLevel = max(maxLevel, level[g.out])

		var fan [3]int32
		for i, f := range g.fanin[:min(len(g.fanin), 3)] {
			fan[i] = int32(f)
		}
		o := op{out: int32(g.out), a: fan[0], b: fan[1], c: fan[2]}
		switch g.typ {
		case netlist.Not:
			o.kind = opNot
		case netlist.Buf, netlist.DFF:
			o.kind = opBuf
		case netlist.Mux:
			o.kind = opMux
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			kinds := gateKinds[g.typ]
			switch n := len(g.fanin); n {
			case 1:
				o.kind = opBuf | kinds[0]&1 // BUF, or NOT for an inverted pair
			case 2, 3:
				o.kind = kinds[n-2]
			default:
				o.kind, o.a = kinds[2], int32(len(arena))
				for _, f := range g.fanin {
					arena = append(arena, int32(f))
				}
				o.b = int32(len(arena))
			}
		default:
			// Unknown gate types evaluate to constant 0 (an empty OR),
			// matching the historical evalGate fallback.
			o.kind, o.a, o.b = opOrN, 0, 0
		}
		ops[gi] = o
	}

	// Counting sort on key = level*numKinds + kind. It is stable, so each
	// run keeps its ops in the given topological order. After placement
	// end[k] is the end of bucket k; every non-empty bucket is one run.
	key := func(o op) int { return int(level[o.out])*numKinds + int(o.kind) }
	end := make([]int32, (int(maxLevel)+1)*numKinds+1)
	for _, o := range ops {
		end[key(o)+1]++
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	p := &program{ops: make([]op, len(ops)), arena: arena}
	for _, o := range ops {
		k := key(o)
		p.ops[end[k]] = o
		end[k]++
	}
	begin := int32(0)
	for _, e := range end[:len(end)-1] {
		if e > begin {
			p.runEnds = append(p.runEnds, e)
		}
		begin = e
	}
	return p
}

// gate evaluates one op over a scalar value plane.
func (p *program) gate(o *op, v []uint64) uint64 {
	inv := o.kind.inv()
	switch o.kind &^ 1 {
	case opBuf:
		return v[o.a] ^ inv
	case opAnd2:
		return v[o.a]&v[o.b] ^ inv
	case opOr2:
		return (v[o.a] | v[o.b]) ^ inv
	case opXor2:
		return v[o.a] ^ v[o.b] ^ inv
	case opAnd3:
		return v[o.a]&v[o.b]&v[o.c] ^ inv
	case opOr3:
		return (v[o.a] | v[o.b] | v[o.c]) ^ inv
	case opXor3:
		return v[o.a] ^ v[o.b] ^ v[o.c] ^ inv
	case opMux:
		return (v[o.b] &^ v[o.a]) | (v[o.c] & v[o.a])
	}
	var r uint64
	fan := p.arena[o.a:o.b]
	switch o.kind &^ 1 {
	case opAndN:
		r = ^uint64(0)
		for _, f := range fan {
			r &= v[f]
		}
	case opOrN:
		for _, f := range fan {
			r |= v[f]
		}
	default: // opXorN
		for _, f := range fan {
			r ^= v[f]
		}
	}
	return r ^ inv
}

// eval runs the whole program over v (fault-free), run by run like the
// lane kernels; MUX and N-input runs go through gate.
func (p *program) eval(v []uint64) {
	start := int32(0)
	for _, end := range p.runEnds {
		run := p.ops[start:end]
		inv := run[0].kind.inv()
		switch run[0].kind &^ 1 {
		case opBuf:
			for _, o := range run {
				v[o.out] = v[o.a] ^ inv
			}
		case opAnd2:
			for _, o := range run {
				v[o.out] = v[o.a]&v[o.b] ^ inv
			}
		case opOr2:
			for _, o := range run {
				v[o.out] = (v[o.a] | v[o.b]) ^ inv
			}
		case opXor2:
			for _, o := range run {
				v[o.out] = v[o.a] ^ v[o.b] ^ inv
			}
		case opAnd3:
			for _, o := range run {
				v[o.out] = v[o.a]&v[o.b]&v[o.c] ^ inv
			}
		case opOr3:
			for _, o := range run {
				v[o.out] = (v[o.a] | v[o.b] | v[o.c]) ^ inv
			}
		default:
			for i := range run {
				v[run[i].out] = p.gate(&run[i], v)
			}
		}
		start = end
	}
}
