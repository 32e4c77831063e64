package sim

import (
	"strings"
	"testing"
)

func TestVCDHeaderAndChanges(t *testing.T) {
	ev := compile(t, `
INPUT(a)
OUTPUT(q)
q = DFF(na)
na = NOT(a)
`)
	var sb strings.Builder
	vcd, err := NewVCDWriter(&sb, ev, []string{"a", "q"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := ev.NewState()
	for cycle := 0; cycle < 4; cycle++ {
		ev.SetInput(st, 0, uint64(cycle%2))
		ev.EvalComb(st)
		vcd.Sample(st)
		ev.ClockDFFs(st)
	}
	if err := vcd.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"$timescale", "$var wire 1 ! a $end", "$var wire 1 \" q $end", "$enddefinitions", "#0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// a toggles each cycle: expect at least 3 timestamps with changes.
	if strings.Count(out, "#") < 4 {
		t.Fatalf("too few timesteps:\n%s", out)
	}
	// No value lines for signals that did not change between samples: q
	// follows NOT(a) with one cycle lag, both change every cycle here, so
	// just check codes are used.
	if !strings.Contains(out, "1!") || !strings.Contains(out, "0!") {
		t.Fatalf("input transitions missing:\n%s", out)
	}
}

func TestVCDAllSignalsDefault(t *testing.T) {
	ev := compile(t, `
INPUT(a)
OUTPUT(y)
y = NOT(a)
`)
	var sb strings.Builder
	vcd, err := NewVCDWriter(&sb, ev, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := ev.NewState()
	ev.EvalComb(st)
	vcd.Sample(st)
	if err := vcd.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "$var wire") != len(ev.Signals()) {
		t.Fatalf("expected %d vars:\n%s", len(ev.Signals()), sb.String())
	}
}

func TestVCDValidation(t *testing.T) {
	ev := compile(t, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	var sb strings.Builder
	if _, err := NewVCDWriter(&sb, ev, []string{"nope"}, 0); err == nil {
		t.Fatal("unknown signal accepted")
	}
	if _, err := NewVCDWriter(&sb, ev, nil, 64); err == nil {
		t.Fatal("lane 64 accepted")
	}
}

func TestVCDCodes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		c := vcdCode(i)
		if seen[c] {
			t.Fatalf("code collision at %d: %q", i, c)
		}
		seen[c] = true
	}
}
