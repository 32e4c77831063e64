package fault

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// chainCircuit has single-fanout inverter/buffer chains that collapse.
const chainCircuit = `
INPUT(a)
INPUT(b)
OUTPUT(y)
i1 = NOT(a)
b1 = BUFF(i1)
y = NAND(b1, b)
`

// collapse collapses a netlist's whole fault list as one segment.
func collapse(t *testing.T, text string) (full, reps []sim.Fault, repIdx []int) {
	t.Helper()
	c, sg := wholeSegment(t, text)
	full = List(sg)
	reps, repIdx = NewCollapser(c).CollapseIndexed(sg, full)
	return full, reps, repIdx
}

func TestCollapseChains(t *testing.T) {
	full, reps, repIdx := collapse(t, chainCircuit)
	if len(reps) >= len(full) {
		t.Fatalf("no collapsing: %d -> %d", len(full), len(reps))
	}
	// a/SA0 -> i1/SA1 -> b1/SA1: all three share one representative.
	class := func(f sim.Fault) int { return repIdx[slices.Index(full, f)] }
	want := class(sim.Fault{Signal: "a"})
	for _, f := range []sim.Fault{{Signal: "i1", Stuck1: true}, {Signal: "b1", Stuck1: true}} {
		if got := class(f); got != want {
			t.Fatalf("%v in class %v, a/SA0 in class %v", f, reps[got], reps[want])
		}
	}
	// Every representative is a fault of the list that represents itself.
	for k, rep := range reps {
		if i := slices.Index(full, rep); i < 0 || repIdx[i] != k {
			t.Fatalf("representative %v is not its own class's representative", rep)
		}
	}
}

func TestCollapsePreservesCoverage(t *testing.T) {
	// Detection verdicts on representatives equal those of every class
	// member: the collapsed and uncollapsed campaigns on a combinational
	// segment must leave exactly the same faults undetected.
	plain := wholeCampaign(t, chainCircuit, CampaignOptions{Seed: 1})
	collapsed := wholeCampaign(t, chainCircuit, CampaignOptions{Seed: 1, Collapse: true})
	if collapsed.Simulated >= plain.Simulated {
		t.Fatalf("collapse simulated %d of %d faults", collapsed.Simulated, plain.Simulated)
	}
	if !slices.Equal(plain.Undetected, collapsed.Undetected) || plain.Detected != collapsed.Detected {
		t.Fatalf("collapsed undetected %v, plain %v", collapsed.Undetected, plain.Undetected)
	}
}

func TestCollapseStopsAtFanout(t *testing.T) {
	// a collapses into i1 (a's only reader), but i1 has two readers, so
	// the chain must stop there rather than continuing into y or z.
	c, sg := wholeSegment(t, `
INPUT(a)
OUTPUT(y)
OUTPUT(z)
i1 = NOT(a)
y = BUFF(i1)
z = NOT(i1)
`)
	reps, _ := NewCollapser(c).CollapseIndexed(sg, []sim.Fault{{Signal: "a", Stuck1: false}})
	if len(reps) != 1 || reps[0].Signal != "i1" || !reps[0].Stuck1 {
		t.Fatalf("want stop at i1/SA1, got %v", reps)
	}
}

func TestCollapseOnS27(t *testing.T) {
	full, reps, _ := collapse(t, s27)
	if len(reps) > len(full) {
		t.Fatal("collapse grew the list")
	}
	// G0's only reader is the inverter G14, so G0/SA0 collapses into
	// G14/SA1; G11 fans out three ways and must remain its own
	// representative.
	if slices.Contains(reps, sim.Fault{Signal: "G0"}) {
		t.Fatal("G0/SA0 should have collapsed into G14/SA1")
	}
	if !slices.Contains(reps, sim.Fault{Signal: "G14", Stuck1: true}) {
		t.Fatal("G14/SA1 missing as representative")
	}
	if !slices.Contains(reps, sim.Fault{Signal: "G11"}) {
		t.Fatal("G11/SA0 wrongly collapsed despite fanout")
	}
}
