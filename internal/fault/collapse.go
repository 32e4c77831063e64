package fault

import (
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Collapser performs structural fault-equivalence collapsing on a
// segment's stuck-at list using the classic single-fanout rules:
//
//   - NOT: SA0 on the input is equivalent to SA1 on the output (and vice
//     versa) when the input signal has no other fanout;
//   - BUF and DFF: input SAx is equivalent to output SAx under the same
//     single-fanout condition.
//
// Every dropped fault is detected iff its representative is, so
// simulating the representatives yields the same coverage verdicts at
// lower cost. A Collapser amortizes the circuit-wide precomputation
// (primary-input fanout) across CollapseIndexed calls; a whole-partition
// campaign collapses one segment per cluster against the same circuit.
type Collapser struct {
	c     *netlist.Circuit
	inFan map[string][]string
}

// NewCollapser prepares a collapser for circuit c.
func NewCollapser(c *netlist.Circuit) *Collapser {
	return &Collapser{c: c, inFan: inputFanouts(c)}
}

// CollapseIndexed returns the representatives of faults plus, for every
// input fault, the index of its representative in reps. It works
// entirely in signal-index space — one name lookup per fault, no
// fault-keyed maps — which keeps collapsing far cheaper than the
// simulation it saves.
func (cc *Collapser) CollapseIndexed(sg *sim.Segment, faults []sim.Fault) (reps []sim.Fault, repIdx []int) {
	c := cc.c
	sigs := sg.Signals()
	local := make(map[string]int, len(sigs))
	for i, n := range sigs {
		local[n] = i
	}

	// Per-signal chain step: the single-fanout successor inside the
	// segment (or -1), with the polarity flip of an inverter hop.
	next := make([]int32, len(sigs))
	flip := make([]bool, len(sigs))
	for i, n := range sigs {
		next[i] = -1
		g := c.Gate(n)
		var fanout []string
		if g != nil {
			fanout = g.Fanout()
		} else if c.IsInput(n) {
			fanout = cc.inFan[n]
		}
		if len(fanout) != 1 {
			continue
		}
		ni, ok := local[fanout[0]]
		if !ok {
			continue
		}
		switch c.Gate(fanout[0]).Type {
		case netlist.Not:
			next[i], flip[i] = int32(ni), true
		case netlist.Buf, netlist.DFF:
			next[i], flip[i] = int32(ni), false
		}
	}

	// Resolve each fault id (2*signal + polarity) to its chain fixed
	// point, memoized with path compression; the in-progress marker breaks
	// chains that loop through a register.
	const unset, busy = -1, -2
	repOfID := make([]int32, 2*len(sigs))
	for i := range repOfID {
		repOfID[i] = unset
	}
	var resolve func(fid int32) int32
	resolve = func(fid int32) int32 {
		switch repOfID[fid] {
		case busy:
			return fid
		case unset:
			repOfID[fid] = busy
			sig := fid >> 1
			r := fid
			if n := next[sig]; n >= 0 {
				pol := fid & 1
				if flip[sig] {
					pol ^= 1
				}
				r = resolve(n<<1 | pol)
			}
			repOfID[fid] = r
			return r
		default:
			return repOfID[fid]
		}
	}

	repIdx = make([]int, len(faults))
	slot := make([]int32, 2*len(sigs))
	for i := range slot {
		slot[i] = -1
	}
	for i, f := range faults {
		li, ok := local[f.Signal]
		if !ok {
			// Unknown signal: keep the fault as its own representative.
			repIdx[i] = len(reps)
			reps = append(reps, f)
			continue
		}
		fid := int32(li) << 1
		if f.Stuck1 {
			fid |= 1
		}
		rep := resolve(fid)
		if slot[rep] < 0 {
			slot[rep] = int32(len(reps))
			reps = append(reps, sim.Fault{Signal: sigs[rep>>1], Stuck1: rep&1 == 1})
		}
		repIdx[i] = int(slot[rep])
	}
	return reps, repIdx
}

// inputFanouts maps every primary input to the gates it feeds, in one
// pass over the circuit.
func inputFanouts(c *netlist.Circuit) map[string][]string {
	out := make(map[string][]string, len(c.Inputs))
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			if c.IsInput(f) {
				out[f] = append(out[f], g.Name)
			}
		}
	}
	return out
}
