// Package netlist models gate-level synchronous circuits in the ISCAS89
// ".bench" format: primary inputs, primary outputs, D flip-flops and simple
// combinational gates. It provides parsing, writing, structural validation
// and the CMOS area model used throughout the paper (DAC'96, Liou/Lin/Cheng,
// section 4).
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// GateType enumerates the cell library. The library is exactly the set of
// primitives appearing in the ISCAS89 benchmarks.
type GateType int

const (
	// Invalid is the zero GateType; it never appears in a valid circuit.
	Invalid GateType = iota
	// DFF is a D-type flip-flop (one data input, clocked implicitly).
	DFF
	// And is a k-input AND gate, k >= 2.
	And
	// Nand is a k-input NAND gate, k >= 2.
	Nand
	// Or is a k-input OR gate, k >= 2.
	Or
	// Nor is a k-input NOR gate, k >= 2.
	Nor
	// Xor is a k-input XOR (odd parity), k >= 2.
	Xor
	// Xnor is a k-input XNOR (even parity), k >= 2.
	Xnor
	// Not is an inverter (exactly one input).
	Not
	// Buf is a non-inverting buffer (exactly one input).
	Buf
	// Mux is a 2-to-1 multiplexer with fanin (sel, d0, d1): output d0 when
	// sel=0, d1 when sel=1. Not part of ISCAS89; used by the test-hardware
	// emitter (paper Figure 3(c) prices it at 3 area units).
	Mux
)

var typeNames = map[GateType]string{
	DFF: "DFF", And: "AND", Nand: "NAND", Or: "OR", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", Not: "NOT", Buf: "BUFF", Mux: "MUX",
}

var namesToType = map[string]GateType{
	"DFF": DFF, "AND": And, "NAND": Nand, "OR": Or, "NOR": Nor,
	"XOR": Xor, "XNOR": Xnor, "NOT": Not, "BUF": Buf, "BUFF": Buf,
	"MUX": Mux,
}

// String returns the canonical .bench spelling of the gate type.
func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// IsComb reports whether the gate type is combinational (everything except
// DFF and Invalid).
func (t GateType) IsComb() bool { return t != DFF && t != Invalid }

// Gate is one named cell: its output signal name, its type, and the signal
// names it reads. In .bench a gate and the net it drives share a name.
type Gate struct {
	Name   string
	Type   GateType
	Fanin  []string
	fanout []string // names of gates reading this gate's output (derived)
}

// Fanout returns the names of gates whose fanin includes this gate. The
// slice is owned by the circuit; callers must not mutate it.
func (g *Gate) Fanout() []string { return g.fanout }

// Circuit is a parsed gate-level netlist. Inputs and Outputs hold signal
// names; every non-PI signal is driven by exactly one Gate.
type Circuit struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	byName   map[string]*Gate
	inputSet map[string]bool
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{
		Name:     name,
		byName:   make(map[string]*Gate),
		inputSet: make(map[string]bool),
	}
}

// AddInput declares a primary input signal.
func (c *Circuit) AddInput(name string) error {
	if c.inputSet[name] {
		return fmt.Errorf("netlist: duplicate input %q", name)
	}
	if _, ok := c.byName[name]; ok {
		return fmt.Errorf("netlist: input %q collides with gate", name)
	}
	c.Inputs = append(c.Inputs, name)
	c.inputSet[name] = true
	return nil
}

// AddOutput declares a primary output signal. The driving gate may be added
// later; Validate checks that it eventually exists.
func (c *Circuit) AddOutput(name string) {
	c.Outputs = append(c.Outputs, name)
}

// AddGate appends a gate driving signal name with the given type and fanin.
func (c *Circuit) AddGate(name string, t GateType, fanin ...string) (*Gate, error) {
	if _, ok := c.byName[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate driver for %q", name)
	}
	if c.inputSet[name] {
		return nil, fmt.Errorf("netlist: gate %q collides with primary input", name)
	}
	switch t {
	case Not, Buf, DFF:
		if len(fanin) != 1 {
			return nil, fmt.Errorf("netlist: %s %q needs exactly 1 input, got %d", t, name, len(fanin))
		}
	case Mux:
		if len(fanin) != 3 {
			return nil, fmt.Errorf("netlist: MUX %q needs exactly 3 inputs (sel, d0, d1), got %d", name, len(fanin))
		}
	case And, Nand, Or, Nor, Xor, Xnor:
		if len(fanin) < 2 {
			return nil, fmt.Errorf("netlist: %s %q needs >=2 inputs, got %d", t, name, len(fanin))
		}
	default:
		return nil, fmt.Errorf("netlist: invalid gate type for %q", name)
	}
	g := &Gate{Name: name, Type: t, Fanin: append([]string(nil), fanin...)}
	c.Gates = append(c.Gates, g)
	c.byName[name] = g
	return g, nil
}

// Gate returns the gate driving the named signal, or nil for primary inputs
// and undriven signals.
func (c *Circuit) Gate(name string) *Gate { return c.byName[name] }

// IsInput reports whether name is a primary input.
func (c *Circuit) IsInput(name string) bool { return c.inputSet[name] }

// NumDFFs returns the number of flip-flops.
func (c *Circuit) NumDFFs() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type == DFF {
			n++
		}
	}
	return n
}

// NumInverters returns the number of NOT gates.
func (c *Circuit) NumInverters() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type == Not {
			n++
		}
	}
	return n
}

// NumGates returns the number of combinational gates excluding inverters and
// buffers, matching the "No. of Gates" column of the paper's Table 9.
func (c *Circuit) NumGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Type != DFF && g.Type != Not && g.Type != Buf {
			n++
		}
	}
	return n
}

// Normalize (re)derives the fanout lists from the fanin declarations. It is
// the only operation that writes the derived state, so a circuit that has
// been normalized once — ParseBench guarantees it — can be
// shared read-only across goroutines. Fanin references to signals with no
// driver are skipped here; Validate reports them.
func (c *Circuit) Normalize() {
	for _, g := range c.Gates {
		g.fanout = g.fanout[:0]
	}
	for _, g := range c.Gates {
		for _, in := range g.Fanin {
			if c.inputSet[in] {
				continue
			}
			if d, ok := c.byName[in]; ok {
				d.fanout = append(d.fanout, g.Name)
			}
		}
	}
}

// Validate checks structural sanity: every fanin and output is driven by a
// gate or primary input, and fanin arities are legal. It is a pure checker —
// it never mutates the circuit — so any number of goroutines may validate
// (and compile) the same circuit concurrently. Builders that assemble
// circuits by hand should call Finalize (or Normalize) to derive the fanout
// lists; parsing and cloning already do.
func (c *Circuit) Validate() error {
	for _, g := range c.Gates {
		for _, in := range g.Fanin {
			if c.inputSet[in] {
				continue
			}
			if _, ok := c.byName[in]; !ok {
				return fmt.Errorf("netlist: %s %q reads undriven signal %q", g.Type, g.Name, in)
			}
		}
	}
	for _, out := range c.Outputs {
		if !c.inputSet[out] {
			if _, ok := c.byName[out]; !ok {
				return fmt.Errorf("netlist: output %q is undriven", out)
			}
		}
	}
	return nil
}

// Finalize normalizes the derived fanout state and validates: the one call a
// programmatic circuit builder needs before handing the circuit to readers.
func (c *Circuit) Finalize() error {
	c.Normalize()
	return c.Validate()
}

// Stats summarises a circuit in the shape of the paper's Table 9.
type Stats struct {
	Name      string
	PIs       int
	DFFs      int
	Gates     int // combinational gates excluding INV/BUF
	Inverters int
	Area      float64
}

// Stats returns the Table 9 summary for the circuit.
func (c *Circuit) Stats() Stats {
	return Stats{
		Name:      c.Name,
		PIs:       len(c.Inputs),
		DFFs:      c.NumDFFs(),
		Gates:     c.NumGates(),
		Inverters: c.NumInverters(),
		Area:      c.Area(),
	}
}

// SortedSignals returns all driven signal names plus inputs, sorted. Useful
// for deterministic iteration in tests and reports.
func (c *Circuit) SortedSignals() []string {
	out := make([]string, 0, len(c.Gates)+len(c.Inputs))
	out = append(out, c.Inputs...)
	for _, g := range c.Gates {
		out = append(out, g.Name)
	}
	sort.Strings(out)
	return out
}

// String returns a short human-readable summary.
func (c *Circuit) String() string {
	s := c.Stats()
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, %d INV, area %.0f",
		c.Name, s.PIs, len(c.Outputs), s.DFFs, s.Gates, s.Inverters, s.Area)
}

// normalizeName strips characters that would confuse the .bench grammar.
func normalizeName(s string) string {
	return strings.TrimSpace(s)
}
