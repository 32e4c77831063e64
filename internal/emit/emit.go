// Package emit materialises the PPET test hardware as a netlist: starting
// from the retimed circuit (retime.Apply), every cut net receives an A_CELL
// (paper Figure 3) — converting the repositioned functional register when
// retiming covered the cut, or adding a multiplexed test register when it
// could not — and every primary input gets a multiplexed boundary cell. All
// cells are linked into a scan chain. The result is the netlist a BIST
// compiler would hand to synthesis.
//
// Cell encoding (paper Figure 3(a): AND + NOR + XOR ahead of a DFF, with
// two mode controls TB1/TB2 and the scan input SIN):
//
//	q' = XOR(AND(data, TB1), NOR(SIN, TB2))
//
//	TB1=1 TB2=1: q' = data        — normal operation (plain register)
//	TB1=0 TB2=0: q' = NOT(SIN)    — (inverting) scan shift
//	TB1=1 TB2=0: q' = data ^ !SIN — dual TPG/PSA shifting mode
//
// Multiplexed cells route their readers through MUX(TMODE, data, q), so in
// normal mode (TMODE=0) the added register is invisible.
package emit

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/retime"
)

// Control signal names added as primary inputs.
const (
	CtrlTB1    = "TB1"
	CtrlTB2    = "TB2"
	CtrlTMode  = "TMODE"
	CtrlScanIn = "SCANIN"
	// ScanOut is the added primary output observing the scan chain tail.
	ScanOut = "SCANOUT"
)

// Info reports what the emitter built.
type Info struct {
	// Converted counts A_CELLs that reused a retimed register (0.9 DFF of
	// added area each).
	Converted int
	// Multiplexed counts added test registers with a bypass MUX (demoted
	// cut nets plus emission-time demotions when the shared register chain
	// placed the flip-flop elsewhere on the path).
	Multiplexed int
	// Boundary counts primary-input cells (always multiplexed).
	Boundary int
	// ScanOrder lists the scan chain cell names, SCANIN side first.
	ScanOrder []string
	// AddedArea is the emitted test hardware area in paper units.
	AddedArea float64
}

// Testable builds the self-testable netlist from a successful Merced
// compilation: it applies the compilation's retiming labels on its own
// CombGraph, which Apply only reads.
func Testable(res *core.Result) (*netlist.Circuit, *Info, error) {
	if res == nil || res.Retiming == nil {
		return nil, nil, fmt.Errorf("emit: compilation lacks a retiming solution")
	}
	rc, err := retime.Apply(res.Circuit, res.Graph, res.CombGraph, res.Retiming.Rho)
	if err != nil {
		return nil, nil, fmt.Errorf("emit: applying retiming: %w", err)
	}
	baseArea := rc.Area()

	out := netlist.New(res.Circuit.Name + "_testable")
	for _, in := range rc.Inputs {
		if err := out.AddInput(in); err != nil {
			return nil, nil, err
		}
	}
	for _, ctrl := range []string{CtrlTB1, CtrlTB2, CtrlTMode, CtrlScanIn} {
		if err := out.AddInput(ctrl); err != nil {
			return nil, nil, err
		}
	}

	info := &Info{}
	// rewire[s] substitutes signal s in every fanin (multiplexed cells).
	rewire := map[string]string{}
	// replaceDFF[name] marks a retimed register to re-emit as an A_CELL.
	replaceDFF := map[string]bool{}

	// Deterministic cut-net order.
	cuts := append([]int(nil), res.Retiming.Covered...)
	demoted := append([]int(nil), res.Retiming.Demoted...)
	sort.Ints(cuts)
	sort.Ints(demoted)

	sin := CtrlScanIn
	addACell := func(base, data string) string {
		and := base + "_ta"
		nor := base + "_tn"
		x := base + "_tx"
		q := base + "_tq"
		mustAdd(out, and, netlist.And, data, CtrlTB1)
		mustAdd(out, nor, netlist.Nor, sin, CtrlTB2)
		mustAdd(out, x, netlist.Xor, and, nor)
		mustAdd(out, q, netlist.DFF, x)
		sin = q
		info.ScanOrder = append(info.ScanOrder, q)
		return q
	}
	addMuxCell := func(base, data string) {
		q := addACell(base, data)
		mux := base + "_tm"
		mustAdd(out, mux, netlist.Mux, CtrlTMode, data, q)
		rewire[data] = mux
		info.Multiplexed++
	}

	// Covered cut nets: locate the physical register Apply placed at the
	// cut (the head of the driver's shared chain) and convert it. When the
	// shared-chain placement left no register right at this net, fall back
	// to a multiplexed cell (the area report's covered/demoted split is the
	// solver's; the emitter records its own split in Info).
	type conv struct{ reg, data string }
	var conversions []conv
	for _, e := range cuts {
		driver, depth, err := cutRegister(res, e)
		if err != nil {
			return nil, nil, err
		}
		reg := fmt.Sprintf("%s__r%d", driver, depth)
		if g := rc.Gate(reg); g != nil && g.Type == netlist.DFF {
			if !replaceDFF[reg] {
				replaceDFF[reg] = true
				conversions = append(conversions, conv{reg: reg, data: g.Fanin[0]})
				info.Converted++
			}
			continue
		}
		name := res.Graph.Nets[e].Name
		if sig := existingSignal(rc, name); sig != "" {
			addMuxCell(sanitize(name), sig)
		} else {
			info.Multiplexed++ // net vanished into a chain; count the cell
			addMuxCell(sanitize(name), driver)
		}
	}
	for _, e := range demoted {
		name := res.Graph.Nets[e].Name
		sig := existingSignal(rc, name)
		if sig == "" {
			// The demoted net sits inside a register chain; attach the
			// bypass at its comb driver instead.
			var err error
			sig, _, err = cutRegister(res, e)
			if err != nil {
				return nil, nil, err
			}
		}
		addMuxCell(sanitize(name)+"_d", sig)
	}
	// Primary-input boundary cells.
	for _, in := range rc.Inputs {
		addMuxCell("pi_"+sanitize(in), in)
		info.Boundary++
	}

	// Re-emit the retimed netlist with rewiring and register conversion.
	for _, g := range rc.Gates {
		if replaceDFF[g.Name] {
			continue // re-emitted as an A_CELL below
		}
		fanin := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			if r, ok := rewire[f]; ok && !isTestCell(g.Name) {
				fanin[i] = r
			} else {
				fanin[i] = f
			}
		}
		if _, err := out.AddGate(g.Name, g.Type, fanin...); err != nil {
			return nil, nil, err
		}
	}
	for _, cv := range conversions {
		data := cv.data
		if r, ok := rewire[data]; ok {
			data = r
		}
		and := cv.reg + "_ta"
		nor := cv.reg + "_tn"
		x := cv.reg + "_tx"
		mustAdd(out, and, netlist.And, data, CtrlTB1)
		mustAdd(out, nor, netlist.Nor, sin, CtrlTB2)
		mustAdd(out, x, netlist.Xor, and, nor)
		mustAdd(out, cv.reg, netlist.DFF, x)
		sin = cv.reg
		info.ScanOrder = append(info.ScanOrder, cv.reg)
	}

	for _, po := range rc.Outputs {
		if r, ok := rewire[po]; ok {
			out.AddOutput(r)
		} else {
			out.AddOutput(po)
		}
	}
	out.AddOutput(sin)
	// ScanOut is an alias output for the chain tail; expose under the
	// canonical name via a buffer for readability.
	mustAdd(out, ScanOut, netlist.Buf, sin)
	out.Outputs[len(out.Outputs)-1] = ScanOut

	if err := out.Finalize(); err != nil {
		return nil, nil, fmt.Errorf("emit: emitted netlist invalid: %w", err)
	}
	info.AddedArea = out.Area() - baseArea
	return out, info, nil
}

// cutRegister maps a cut net to (comb driver, register depth) — the
// position of the physical register retime.Apply placed for it.
func cutRegister(res *core.Result, e int) (string, int, error) {
	name := res.Graph.Nets[e].Name
	c := res.Circuit
	// Walk back from the cut signal through original DFFs to the comb
	// driver. A cut on a net k registers downstream of its comb driver maps
	// to chain tap k; a cut directly at a combinational output maps to the
	// chain's first (retiming-supplied) register.
	depth := 0
	cur := name
	for {
		if c.IsInput(cur) {
			break
		}
		g := c.Gate(cur)
		if g == nil {
			return "", 0, fmt.Errorf("emit: cut net %q has no driver", name)
		}
		if g.Type != netlist.DFF {
			break
		}
		depth++
		cur = g.Fanin[0]
	}
	if depth == 0 {
		depth = 1
	}
	return cur, depth, nil
}

// existingSignal returns name if it is a signal of rc, else "".
func existingSignal(rc *netlist.Circuit, name string) string {
	if rc.IsInput(name) || rc.Gate(name) != nil {
		return name
	}
	return ""
}

func sanitize(s string) string { return s }

func isTestCell(name string) bool {
	n := len(name)
	return n > 3 && name[n-3] == '_' && name[n-2] == 't'
}

func mustAdd(c *netlist.Circuit, name string, t netlist.GateType, fanin ...string) {
	if _, err := c.AddGate(name, t, fanin...); err != nil {
		panic(fmt.Sprintf("emit: internal: %v", err))
	}
}
