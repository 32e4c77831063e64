// Package bist drives the emitted self-testable netlist (internal/emit)
// through a complete built-in self-test session, exactly as the on-chip
// test controller would: reset, scan-initialise the chain, run the dual
// TPG/PSA test mode for the pseudo-exhaustive burst, and scan the raw
// signature back out. Because it operates on the emitted hardware itself
// (via the logic simulator), a fault hard-wired into the netlist
// (fault.InjectNetlist) is caught by a signature mismatch end to end —
// gate-level hardware, not model, decides pass/fail.
package bist

import (
	"fmt"
	"math/rand"

	"repro/internal/emit"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Controller runs BIST sessions on an emitted testable netlist.
type Controller struct {
	tc     *netlist.Circuit
	ev     *sim.Segment
	st     *sim.State
	inIdx  map[string]int
	outIdx map[string]int
	chain  int // scan chain length
	// funcInputs are the circuit's own PIs (everything except controls).
	funcInputs []string
}

// NewController compiles the emitted netlist and locates the control pins.
func NewController(tc *netlist.Circuit, info *emit.Info) (*Controller, error) {
	ev, err := sim.Compile(tc)
	if err != nil {
		return nil, err
	}
	b := &Controller{
		tc:     tc,
		ev:     ev,
		st:     ev.NewState(),
		inIdx:  map[string]int{},
		outIdx: map[string]int{},
		chain:  len(info.ScanOrder),
	}
	for i, in := range tc.Inputs {
		b.inIdx[in] = i
	}
	for i, o := range tc.Outputs {
		b.outIdx[o] = i
	}
	for _, ctrl := range []string{emit.CtrlTB1, emit.CtrlTB2, emit.CtrlTMode, emit.CtrlScanIn} {
		if _, ok := b.inIdx[ctrl]; !ok {
			return nil, fmt.Errorf("bist: control input %q missing", ctrl)
		}
	}
	if _, ok := b.outIdx[emit.ScanOut]; !ok {
		return nil, fmt.Errorf("bist: %s missing", emit.ScanOut)
	}
	for _, in := range tc.Inputs {
		switch in {
		case emit.CtrlTB1, emit.CtrlTB2, emit.CtrlTMode, emit.CtrlScanIn:
		default:
			b.funcInputs = append(b.funcInputs, in)
		}
	}
	return b, nil
}

// Reset clears all simulated state.
func (b *Controller) Reset() { b.st = b.ev.NewState() }

// ChainLength returns the scan chain length in cells.
func (b *Controller) ChainLength() int { return b.chain }

func (b *Controller) set(name string, v uint64) { b.ev.SetInput(b.st, b.inIdx[name], v) }

func (b *Controller) cycle() {
	b.ev.EvalComb(b.st)
	b.ev.ClockDFFs(b.st)
}

// ScanIn shifts the given bits into the chain (first element enters first
// and ends up deepest). Functional inputs are held at zero.
func (b *Controller) ScanIn(bits []uint64) {
	for _, in := range b.funcInputs {
		b.set(in, 0)
	}
	b.set(emit.CtrlTB1, 0)
	b.set(emit.CtrlTB2, 0)
	b.set(emit.CtrlTMode, 0)
	for _, bit := range bits {
		b.set(emit.CtrlScanIn, bit&1)
		b.cycle()
	}
}

// ScanOut shifts the chain out (destructively) and returns the bits in
// arrival order at SCANOUT.
func (b *Controller) ScanOut() []uint64 {
	for _, in := range b.funcInputs {
		b.set(in, 0)
	}
	b.set(emit.CtrlTB1, 0)
	b.set(emit.CtrlTB2, 0)
	b.set(emit.CtrlTMode, 0)
	b.set(emit.CtrlScanIn, 0)
	out := make([]uint64, 0, b.chain)
	for i := 0; i < b.chain; i++ {
		b.ev.EvalComb(b.st)
		out = append(out, b.ev.Output(b.st, b.outIdx[emit.ScanOut])&1)
		b.ev.ClockDFFs(b.st)
	}
	return out
}

// RunTest applies cycles of the dual TPG/PSA mode with pseudo-random
// functional input stimulus derived from seed.
func (b *Controller) RunTest(cycles int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b.set(emit.CtrlTB1, ^uint64(0))
	b.set(emit.CtrlTB2, 0)
	b.set(emit.CtrlTMode, ^uint64(0))
	b.set(emit.CtrlScanIn, 0)
	for i := 0; i < cycles; i++ {
		for _, in := range b.funcInputs {
			b.set(in, uint64(rng.Intn(2)))
		}
		b.cycle()
	}
}

// Session runs the full BIST protocol and returns the signature: reset,
// scan-initialise with an alternating seed pattern, test burst, scan-out.
func (b *Controller) Session(testCycles int, seed int64) []uint64 {
	b.Reset()
	init := make([]uint64, b.chain)
	for i := range init {
		init[i] = uint64((i ^ int(seed)) & 1)
	}
	b.ScanIn(init)
	b.RunTest(testCycles, seed)
	return b.ScanOut()
}

// SignaturesEqual compares two scan-out signatures.
func SignaturesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
