// Package sim is a gate-level logic simulator: levelized, 64-way
// bit-parallel combinational evaluation plus synchronous sequential
// stepping. It is the substrate that validates PPET self-testing (pattern
// generation, response capture, fault coverage) on partitioned circuits.
package sim

import "repro/internal/netlist"

// Compile compiles the whole circuit c as one Segment, through the same
// levelizer as BuildSegment. Its inputs are the primary inputs and its
// outputs the primary outputs, both in declaration order; signal indices
// run over the inputs, then the gates in circuit order, then the outputs.
// It fails on an invalid circuit or a combinational cycle.
func Compile(c *netlist.Circuit) (*Segment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sg := newSegment(c.Name, len(c.Inputs)+len(c.Gates))
	sg.InputNames = append([]string(nil), c.Inputs...)
	sg.OutputNames = append([]string(nil), c.Outputs...)
	for _, in := range c.Inputs {
		sg.inputs = append(sg.inputs, sg.idx(in))
	}
	for _, g := range c.Gates {
		sg.idx(g.Name)
	}
	for _, out := range c.Outputs {
		sg.outputs = append(sg.outputs, sg.idx(out))
	}
	if err := sg.levelize(c.Gates); err != nil {
		return nil, err
	}
	return sg, nil
}

// State is one state of a segment's scalar machine: a word per signal (64
// parallel fault-free patterns), indexed like Signals.
type State struct {
	V []uint64

	next []uint64 // ClockDFFs scratch: every D value, read before any Q is written
}

// NewState allocates an all-zero state for the segment.
func (sg *Segment) NewState() *State {
	return &State{V: make([]uint64, len(sg.names)), next: make([]uint64, len(sg.dffs))}
}

// SetInput sets input i (by position in InputNames).
func (sg *Segment) SetInput(s *State, i int, w uint64) { s.V[sg.inputs[i]] = w }

// Output reads output i (by position in OutputNames).
func (sg *Segment) Output(s *State, i int) uint64 { return s.V[sg.outputs[i]] }

// EvalComb evaluates all combinational gates in topological order, given
// the input and flip-flop-output entries of s.
func (sg *Segment) EvalComb(s *State) {
	sg.prog.eval(s.V)
}

// ClockDFFs latches every flip-flop's data input into its output
// (call after EvalComb to advance one cycle). The latch is two-phase, as
// in hardware: every D is read before any Q is written, so a flip-flop fed
// by another flip-flop takes that one's old value (a shift register moves
// one stage per clock, a ring rotates).
func (sg *Segment) ClockDFFs(s *State) {
	if len(s.next) != len(sg.dffs) {
		s.next = make([]uint64, len(sg.dffs))
	}
	for i := range sg.dffs {
		s.next[i] = s.V[sg.dffs[i].in]
	}
	for i := range sg.dffs {
		s.V[sg.dffs[i].out] = s.next[i]
	}
}

// Step runs one full synchronous cycle: combinational settle then clock.
func (sg *Segment) Step(s *State) {
	sg.EvalComb(s)
	sg.ClockDFFs(s)
}
