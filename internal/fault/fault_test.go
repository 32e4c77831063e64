package fault

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// comb is a small purely combinational circuit: every stuck-at fault on it
// is detectable by exhaustive patterns.
const comb = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
n1 = NAND(a, b)
n2 = NOR(b, c)
y = XOR(n1, n2)
z = AND(n1, c)
`

const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func wholeSegment(t *testing.T, text string) *sim.Segment {
	t.Helper()
	c, err := netlist.ParseBenchString("f", text)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, inputNets []int
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) {
			nodes = append(nodes, n.ID)
		}
	}
	for e := range g.Nets {
		if g.Nodes[g.Nets[e].Source].Kind == graph.KindPI {
			inputNets = append(inputNets, e)
		}
	}
	sg, err := sim.BuildSegment(c, g, nodes, inputNets)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestListEnumeratesBothPolarities(t *testing.T) {
	sg := wholeSegment(t, comb)
	faults := List(sg)
	if len(faults) != 2*len(sg.Signals()) {
		t.Fatalf("faults = %d, want %d", len(faults), 2*len(sg.Signals()))
	}
	sa0, sa1 := 0, 0
	for _, f := range faults {
		if f.Stuck1 {
			sa1++
		} else {
			sa0++
		}
	}
	if sa0 != sa1 {
		t.Fatalf("sa0=%d sa1=%d", sa0, sa1)
	}
}

func TestExhaustiveCoverageCombinational(t *testing.T) {
	// Pseudo-exhaustive patterns detect every non-redundant stuck-at fault
	// in a combinational segment. This circuit has no redundancy, so
	// coverage must be 100%.
	sg := wholeSegment(t, comb)
	cov, err := Simulate(sg, List(sg), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != cov.Total {
		t.Fatalf("coverage %d/%d, undetected: %v", cov.Detected, cov.Total, cov.Undetected)
	}
	if cov.Ratio() != 1 {
		t.Fatalf("ratio = %v", cov.Ratio())
	}
}

func TestSequentialCoverageHigh(t *testing.T) {
	// s27 driven exhaustively through its 4 PIs with patterns pipelining
	// through the state: the vast majority of faults must be caught.
	sg := wholeSegment(t, s27)
	cov, err := Simulate(sg, List(sg), Options{Seed: 1, MaxPatterns: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Ratio() < 0.85 {
		t.Fatalf("coverage %.2f too low; undetected %v", cov.Ratio(), cov.Undetected)
	}
}

func TestCoverageDeterministic(t *testing.T) {
	sg := wholeSegment(t, s27)
	a, err := Simulate(sg, List(sg), Options{Seed: 7, MaxPatterns: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sg, List(sg), Options{Seed: 7, MaxPatterns: 512})
	if err != nil {
		t.Fatal(err)
	}
	if a.Detected != b.Detected {
		t.Fatalf("nondeterministic coverage: %d vs %d", a.Detected, b.Detected)
	}
}

func TestMaxPatternsRespected(t *testing.T) {
	sg := wholeSegment(t, comb)
	cov, err := Simulate(sg, List(sg)[:4], Options{Seed: 1, MaxPatterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Patterns != 3 {
		t.Fatalf("patterns = %d, want 3", cov.Patterns)
	}
}

// manyFaults replicates a segment's fault list until it exceeds n entries,
// forcing multi-batch packing at any lane width up to the capacity n maps
// to. Duplicate faults are legal: each occupies its own lane.
func manyFaults(sg *sim.Segment, n int) []sim.Fault {
	base := List(sg)
	faults := append([]sim.Fault(nil), base...)
	for len(faults) <= n {
		faults = append(faults, base...)
	}
	return faults
}

// TestBatching pins the batch counts of the packing rule on a list too
// long for the session cutoff: fault-parallel batches of
// sim.BatchLanes(words) faults, except on a sequential segment once every
// session gets a word, where the session layout packs sim.LanesPerWord
// faults a batch.
func TestBatching(t *testing.T) {
	for _, text := range []string{comb, s27} {
		sg := wholeSegment(t, text)
		faults := manyFaults(sg, sim.BatchLanes(4))
		for _, words := range sim.LaneWordSizes {
			cov, err := Simulate(sg, faults, Options{Seed: 1, MaxPatterns: 256, maxWords: words})
			if err != nil {
				t.Fatal(err)
			}
			lanes := sim.BatchLanes(words)
			if sg.NumDFFs() > 0 && words >= maxBatchSessions {
				lanes = sim.LanesPerWord
			}
			wantBatches := (len(faults) + lanes - 1) / lanes
			if cov.Batches != wantBatches {
				t.Fatalf("%d flip-flops, maxWords=%d: batches = %d, want %d", sg.NumDFFs(), words, cov.Batches, wantBatches)
			}
		}
	}
}

// TestSimulateWidthInvariant pins the packing contract: the per-fault
// verdicts — and hence Detected and the ordered Undetected list — are
// identical at every width the packing may be capped to, for a sole-batch
// list and a multi-batch list alike.
func TestSimulateWidthInvariant(t *testing.T) {
	sg := wholeSegment(t, s27)
	for _, faults := range [][]sim.Fault{
		List(sg), // fits one 63-lane batch: sole at every width
		manyFaults(sg, sim.BatchLanes(sim.MaxLaneWords)), // multiple batches even at the widest
	} {
		var want Coverage
		for i, words := range sim.LaneWordSizes {
			cov, err := Simulate(sg, faults, Options{Seed: 9, MaxPatterns: 512, maxWords: words})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = cov
				continue
			}
			if cov.Detected != want.Detected || len(cov.Undetected) != len(want.Undetected) {
				t.Fatalf("maxWords=%d: detected %d (undetected %d), maxWords=1: %d (%d)",
					words, cov.Detected, len(cov.Undetected), want.Detected, len(want.Undetected))
			}
			for j := range cov.Undetected {
				if cov.Undetected[j] != want.Undetected[j] {
					t.Fatalf("maxWords=%d: undetected[%d] = %v, maxWords=1: %v",
						words, j, cov.Undetected[j], want.Undetected[j])
				}
			}
		}
	}
}

// A partial final fault-parallel batch re-fits to the narrowest width that
// holds it; the re-fit is pure throughput and must not change a single
// verdict. The segment is combinational, so the list packs fault-parallel.
func TestPartialFinalBatchRefit(t *testing.T) {
	sg := wholeSegment(t, comb)
	faults := manyFaults(sg, 70)[:70] // 70 faults: one W=2 batch at the default width
	wide, err := Simulate(sg, faults, Options{Seed: 2, MaxPatterns: 256})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Batches != 1 {
		t.Fatalf("batches = %d, want 1 (70 faults fit one 2-word batch)", wide.Batches)
	}
	narrow, err := Simulate(sg, faults, Options{Seed: 2, MaxPatterns: 256, maxWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Batches != 2 {
		t.Fatalf("batches = %d, want 2 at one word", narrow.Batches)
	}
	if wide.Detected != narrow.Detected {
		t.Fatalf("re-fit changed verdicts: %d vs %d detected", wide.Detected, narrow.Detected)
	}
}

func TestEmptyFaultList(t *testing.T) {
	sg := wholeSegment(t, comb)
	cov, err := Simulate(sg, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Total != 0 || cov.Ratio() != 1 {
		t.Fatalf("empty coverage = %+v", cov)
	}
}

func TestUndetectedAreRedundant(t *testing.T) {
	// A redundant fault: y = OR(a, NOT(a)) is constant 1; SA1 on y is
	// undetectable.
	sg := wholeSegment(t, `
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`)
	cov, err := Simulate(sg, []sim.Fault{{Signal: "y", Stuck1: true}}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 0 {
		t.Fatal("redundant SA1 on constant-1 output reported detected")
	}
	cov2, err := Simulate(sg, []sim.Fault{{Signal: "y", Stuck1: false}}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cov2.Detected != 1 {
		t.Fatal("SA0 on constant-1 output must be detected")
	}
}
