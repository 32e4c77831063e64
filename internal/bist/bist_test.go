package bist

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func emitted(t *testing.T) (*netlist.Circuit, *emit.Info) {
	t.Helper()
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	tc, info, err := emit.Testable(r)
	if err != nil {
		t.Fatal(err)
	}
	return tc, info
}

func TestSessionDeterministic(t *testing.T) {
	tc, info := emitted(t)
	b, err := NewController(tc, info)
	if err != nil {
		t.Fatal(err)
	}
	a := b.Session(64, 7)
	c := b.Session(64, 7)
	if !SignaturesEqual(a, c) {
		t.Fatalf("same session, different signatures: %v vs %v", a, c)
	}
	d := b.Session(64, 8)
	if SignaturesEqual(a, d) {
		t.Fatal("different seeds gave identical signatures (suspicious)")
	}
	if len(a) != b.ChainLength() {
		t.Fatalf("signature length %d, chain %d", len(a), b.ChainLength())
	}
}

func TestScanRoundTripThroughController(t *testing.T) {
	tc, info := emitted(t)
	b, err := NewController(tc, info)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	pattern := make([]uint64, b.ChainLength())
	for i := range pattern {
		pattern[i] = uint64(i % 2)
	}
	b.ScanIn(pattern)
	got := b.ScanOut()
	// The cells invert on scan shifts: after a full scan-in and a full
	// scan-out the stream is complemented twice per position pair — just
	// require a deterministic, length-preserving, non-constant response.
	if len(got) != len(pattern) {
		t.Fatalf("scan-out length %d", len(got))
	}
	allSame := true
	for _, v := range got {
		if v != got[0] {
			allSame = false
		}
	}
	if allSame && len(got) > 2 {
		t.Fatalf("scan-out constant: %v", got)
	}
}

// TestHardwareDetectsInjectedFault is the end-to-end BIST claim: a stuck-at
// fault hard-wired into the emitted netlist changes the scan-out signature.
func TestHardwareDetectsInjectedFault(t *testing.T) {
	tc, info := emitted(t)
	good, err := NewController(tc, info)
	if err != nil {
		t.Fatal(err)
	}
	golden := good.Session(128, 3)

	detected := 0
	tried := 0
	for _, sig := range []string{"G8", "G9", "G15", "G16", "G10"} {
		fc, err := fault.InjectNetlist(tc, sim.Fault{Signal: sig, Stuck1: true})
		if err != nil {
			t.Fatal(err)
		}
		bad, err := NewController(fc, info)
		if err != nil {
			t.Fatal(err)
		}
		tried++
		if !SignaturesEqual(golden, bad.Session(128, 3)) {
			detected++
		}
	}
	if detected == 0 {
		t.Fatalf("no injected fault changed the hardware signature (%d tried)", tried)
	}
	if detected < tried-1 {
		t.Fatalf("only %d/%d faults detected by the emitted hardware", detected, tried)
	}
}

func TestControllerValidation(t *testing.T) {
	c := netlist.New("bare")
	_ = c.AddInput("a")
	_, _ = c.AddGate("y", netlist.Not, "a")
	c.AddOutput("y")
	if _, err := NewController(c, &emit.Info{}); err == nil {
		t.Fatal("netlist without controls accepted")
	}
}

func TestInjectNetlistBasics(t *testing.T) {
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fault.InjectNetlist(c, sim.Fault{Signal: "G8", Stuck1: false})
	if err != nil {
		t.Fatal(err)
	}
	// Readers of G8 now read the constant; G8's own driver survives.
	for _, g := range fc.Gates {
		for _, f := range g.Fanin {
			if f == "G8" && g.Type != netlist.Xor && g.Type != netlist.Xnor {
				t.Fatalf("gate %s still reads the faulty signal directly", g.Name)
			}
		}
	}
	if _, err := fault.InjectNetlist(c, sim.Fault{Signal: "nope"}); err == nil {
		t.Fatal("unknown signal accepted")
	}
	// The constant really is constant: simulate and check.
	ev, err := sim.Compile(fc)
	if err != nil {
		t.Fatal(err)
	}
	st := ev.NewState()
	idx := slices.Index(ev.Signals(), "G8__sa")
	if idx < 0 {
		t.Fatal("constant signal missing")
	}
	for cycle := 0; cycle < 8; cycle++ {
		for i := range fc.Inputs {
			ev.SetInput(st, i, uint64(cycle*13+i))
		}
		ev.EvalComb(st)
		if st.V[idx] != 0 {
			t.Fatal("stuck-at-0 constant not zero")
		}
		ev.ClockDFFs(st)
	}
}
