package emit

import (
	"context"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/retime"
	"repro/internal/sim"
)

func compileS27(t *testing.T, lk int) *core.Result {
	t.Helper()
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(lk, 1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTestableBuilds(t *testing.T) {
	r := compileS27(t, 3)
	tc, info, err := Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	if info.Boundary != 4 {
		t.Fatalf("boundary cells = %d, want 4 (s27 PIs)", info.Boundary)
	}
	if info.Converted+info.Multiplexed-info.Boundary <= 0 {
		t.Fatalf("no cut-net cells emitted: %+v", info)
	}
	if len(info.ScanOrder) != info.Converted+info.Multiplexed {
		t.Fatalf("scan order %d cells, want %d", len(info.ScanOrder), info.Converted+info.Multiplexed)
	}
	// The scan chain tail is observable.
	found := false
	for _, o := range tc.Outputs {
		if o == ScanOut {
			found = true
		}
	}
	if !found {
		t.Fatal("SCANOUT missing")
	}
}

// driveNormal sets the control inputs for normal operation.
func driveNormal(ev *sim.Segment, s *sim.State, c *netlist.Circuit) {
	for i, in := range c.Inputs {
		switch in {
		case CtrlTB1, CtrlTB2:
			ev.SetInput(s, i, ^uint64(0))
		case CtrlTMode, CtrlScanIn:
			ev.SetInput(s, i, 0)
		}
	}
}

func TestNormalModeEquivalence(t *testing.T) {
	// In normal mode the emitted netlist must behave cycle-for-cycle like
	// the retimed circuit it wraps (the added hardware is invisible).
	r := compileS27(t, 3)
	cg := retime.Build(r.Graph)
	rc, err := retime.Apply(r.Circuit, r.Graph, cg, r.Retiming.Rho)
	if err != nil {
		t.Fatal(err)
	}
	tc, _, err := Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	evR, err := sim.Compile(rc)
	if err != nil {
		t.Fatal(err)
	}
	evT, err := sim.Compile(tc)
	if err != nil {
		t.Fatal(err)
	}
	sr, st := evR.NewState(), evT.NewState()
	// Map functional inputs of tc by name.
	tIdx := map[string]int{}
	for i, in := range tc.Inputs {
		tIdx[in] = i
	}
	for cycle := 0; cycle < 96; cycle++ {
		driveNormal(evT, st, tc)
		for i, in := range rc.Inputs {
			w := uint64(cycle)*0x9E3779B97F4A7C15 + uint64(i)*0x85EBCA6B
			evR.SetInput(sr, i, w)
			evT.SetInput(st, tIdx[in], w)
		}
		evR.EvalComb(sr)
		evT.EvalComb(st)
		for i, po := range rc.Outputs {
			// The testable netlist keeps the functional POs first, in order.
			if evR.Output(sr, i) != evT.Output(st, i) {
				t.Fatalf("cycle %d: PO %s differs in normal mode", cycle, po)
			}
		}
		evR.ClockDFFs(sr)
		evT.ClockDFFs(st)
	}
}

func TestScanChainShifts(t *testing.T) {
	// Scan mode (TB1=0, TB2=0): each cell computes NOT(SIN), so after N
	// shifts the chain holds the complemented input stream. Verify a bit
	// injected at SCANIN reaches SCANOUT after N cycles with parity N.
	r := compileS27(t, 3)
	tc, info, err := Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sim.Compile(tc)
	if err != nil {
		t.Fatal(err)
	}
	s := ev.NewState()
	idx := map[string]int{}
	for i, in := range tc.Inputs {
		idx[in] = i
	}
	scanOutIdx := -1
	for i, o := range tc.Outputs {
		if o == ScanOut {
			scanOutIdx = i
		}
	}
	n := len(info.ScanOrder)
	// Shift a marker 1 followed by zeros; everything else held at 0,
	// TB1=TB2=0 selects scan in every cell.
	var got []uint64
	for cycle := 0; cycle < n+2; cycle++ {
		for i := range tc.Inputs {
			ev.SetInput(s, i, 0)
		}
		if cycle == 0 {
			ev.SetInput(s, idx[CtrlScanIn], 1)
		}
		ev.EvalComb(s)
		got = append(got, ev.Output(s, scanOutIdx)&1)
		ev.ClockDFFs(s)
	}
	// After n shifts the injected 1 arrives complemented n times: value
	// 1^(n%2==0? ... ) — with inverting cells the marker arrives as 1 if n
	// is even, 0 if odd, against a background of the opposite polarity.
	marker := got[n]
	background := got[n+1]
	if marker == background {
		t.Fatalf("scan marker did not propagate: out=%v (chain %d)", got, n)
	}
}

func TestEmitAreaAccounting(t *testing.T) {
	r := compileS27(t, 3)
	tc, info, err := Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	// Converted cells add AND+NOR+XOR = 9 units (0.9 DFF); multiplexed
	// cells add a full A_CELL + MUX = 22 units; plus the SCANOUT buffer.
	want := float64(info.Converted)*9 + float64(info.Multiplexed)*22 + netlist.AreaBuffer
	if info.AddedArea != want {
		t.Fatalf("added area %.1f, want %.1f (%+v)", info.AddedArea, want, info)
	}
	_ = tc
}

func TestTestableRequiresSolution(t *testing.T) {
	if _, _, err := Testable(nil); err == nil {
		t.Fatal("nil result accepted")
	}
	r := compileS27(t, 3)
	r.Retiming = nil
	if _, _, err := Testable(r); err == nil {
		t.Fatal("missing retiming accepted")
	}
}

func TestTestableOnGeneratedCircuit(t *testing.T) {
	c, err := bench89.Load("s510")
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	tc, info, err := Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Compile(tc); err != nil {
		t.Fatalf("emitted netlist does not simulate: %v", err)
	}
	if info.Converted+info.Multiplexed == 0 {
		t.Fatal("no test cells emitted")
	}
}
