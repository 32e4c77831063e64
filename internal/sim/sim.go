// Package sim is a gate-level logic simulator: levelized, 64-way
// bit-parallel combinational evaluation plus synchronous sequential
// stepping. It is the substrate that validates PPET self-testing (pattern
// generation, response capture, fault coverage) on partitioned circuits.
package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Evaluator is a compiled circuit ready for simulation. Signal values are
// uint64 words carrying 64 independent patterns in parallel.
type Evaluator struct {
	c *netlist.Circuit

	// Signals maps signal name -> dense index.
	Signals map[string]int
	Names   []string

	inputs  []int // signal indices of PIs
	outputs []int // signal indices of POs
	dffs    []dffInfo
	prog    *program // flattened topological evaluation order (comb gates only)
}

type dffInfo struct {
	out int // signal index of the DFF output
	in  int // signal index of its data input
}

type gateOp struct {
	typ   netlist.GateType
	out   int
	fanin []int
}

// Compile builds an evaluator; it fails on combinational cycles.
func Compile(c *netlist.Circuit) (*Evaluator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluator{c: c, Signals: make(map[string]int)}
	idx := func(name string) int {
		if i, ok := ev.Signals[name]; ok {
			return i
		}
		i := len(ev.Names)
		ev.Signals[name] = i
		ev.Names = append(ev.Names, name)
		return i
	}
	for _, in := range c.Inputs {
		ev.inputs = append(ev.inputs, idx(in))
	}
	for _, g := range c.Gates {
		idx(g.Name)
	}
	for _, out := range c.Outputs {
		ev.outputs = append(ev.outputs, idx(out))
	}

	// Kahn topological sort over combinational gates, driven by an
	// indegree worklist: each gate counts its not-yet-ready fanins once,
	// and emitting a gate decrements the counters of its consumers. This
	// is O(gates + fanin edges), replacing the old repeated rescan of the
	// whole pending list (quadratic on deep circuits).
	ready := make([]bool, len(ev.Names))
	for _, i := range ev.inputs {
		ready[i] = true
	}
	comb := make([]*netlist.Gate, 0, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == netlist.DFF {
			ready[ev.Signals[g.Name]] = true
			ev.dffs = append(ev.dffs, dffInfo{out: ev.Signals[g.Name], in: ev.Signals[g.Fanin[0]]})
		} else {
			comb = append(comb, g)
		}
	}
	indeg := make([]int, len(comb))
	consumers := make([][]int32, len(ev.Names)) // signal -> comb gates waiting on it
	queue := make([]int, 0, len(comb))
	for gi, g := range comb {
		for _, in := range g.Fanin {
			si := ev.Signals[in]
			if !ready[si] {
				indeg[gi]++
				consumers[si] = append(consumers[si], int32(gi))
			}
		}
		if indeg[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	order := make([]gateOp, 0, len(comb))
	for head := 0; head < len(queue); head++ {
		g := comb[queue[head]]
		fanin := make([]int, len(g.Fanin))
		for i, in := range g.Fanin {
			fanin[i] = ev.Signals[in]
		}
		out := ev.Signals[g.Name]
		order = append(order, gateOp{typ: g.Type, out: out, fanin: fanin})
		for _, ci := range consumers[out] {
			indeg[ci]--
			if indeg[ci] == 0 {
				queue = append(queue, int(ci))
			}
		}
	}
	if len(order) < len(comb) {
		for gi := range comb {
			if indeg[gi] > 0 {
				return nil, fmt.Errorf("sim: combinational cycle involving %q", comb[gi].Name)
			}
		}
	}
	ev.prog = compileProgram(order, len(ev.Names))
	return ev, nil
}

// NumSignals returns the signal count.
func (ev *Evaluator) NumSignals() int { return len(ev.Names) }

// InputIndex returns the dense index of primary input i.
func (ev *Evaluator) InputIndex(i int) int { return ev.inputs[i] }

// OutputIndex returns the dense index of primary output i.
func (ev *Evaluator) OutputIndex(i int) int { return ev.outputs[i] }

// NumDFFs returns the flip-flop count.
func (ev *Evaluator) NumDFFs() int { return len(ev.dffs) }

// State is one simulation state: a word per signal (64 parallel patterns).
type State struct {
	V []uint64

	next []uint64 // ClockDFFs scratch: every D value, read before any Q is written
}

// NewState allocates an all-zero state for the evaluator.
func (ev *Evaluator) NewState() *State {
	return &State{V: make([]uint64, len(ev.Names)), next: make([]uint64, len(ev.dffs))}
}

// SetInput sets primary input i (by position in Circuit.Inputs).
func (ev *Evaluator) SetInput(s *State, i int, w uint64) { s.V[ev.inputs[i]] = w }

// Output reads primary output i.
func (ev *Evaluator) Output(s *State, i int) uint64 { return s.V[ev.outputs[i]] }

// SetDFF sets the present-state output of flip-flop i.
func (ev *Evaluator) SetDFF(s *State, i int, w uint64) { s.V[ev.dffs[i].out] = w }

// DFF reads the present-state output of flip-flop i.
func (ev *Evaluator) DFF(s *State, i int) uint64 { return s.V[ev.dffs[i].out] }

// EvalComb evaluates all combinational gates in topological order, given
// the PI and DFF-output entries of s.
func (ev *Evaluator) EvalComb(s *State) {
	ev.prog.eval(s.V)
}

// ClockDFFs latches every flip-flop's data input into its output
// (call after EvalComb to advance one cycle). The latch is two-phase, as
// in hardware: every D is read before any Q is written, so a flip-flop fed
// by another flip-flop takes that one's old value (a shift register moves
// one stage per clock, a ring rotates).
func (ev *Evaluator) ClockDFFs(s *State) {
	if len(s.next) != len(ev.dffs) {
		s.next = make([]uint64, len(ev.dffs))
	}
	for i := range ev.dffs {
		s.next[i] = s.V[ev.dffs[i].in]
	}
	for i := range ev.dffs {
		s.V[ev.dffs[i].out] = s.next[i]
	}
}

// Step runs one full synchronous cycle: combinational settle then clock.
func (ev *Evaluator) Step(s *State) {
	ev.EvalComb(s)
	ev.ClockDFFs(s)
}
