package fault

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/partition"
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

// constOne is a constant-1 output: SA1 on y is redundant (undetectable).
const constOne = `
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`

func parse(t testing.TB, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString("f", text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wholeSegment compiles a netlist as one segment.
func wholeSegment(t testing.TB, text string) (*netlist.Circuit, *sim.Segment) {
	t.Helper()
	c := parse(t, text)
	sg, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, sg
}

// wholePartition parses a netlist and partitions it into one cluster
// holding every cell, fed by the primary inputs.
func wholePartition(t testing.TB, text string) (*netlist.Circuit, *partition.Result) {
	t.Helper()
	c := parse(t, text)
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	cl := &partition.Cluster{InputNets: make(map[int]struct{})}
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) {
			cl.Nodes = append(cl.Nodes, n.ID)
		}
	}
	for e := range g.Nets {
		if g.Nodes[g.Nets[e].Source].Kind == graph.KindPI {
			cl.InputNets[e] = struct{}{}
		}
	}
	return c, &partition.Result{G: g, Clusters: []*partition.Cluster{cl}}
}

// wholeCampaign runs a one-worker campaign on the one-cluster partition
// of a netlist and returns the cluster's coverage.
func wholeCampaign(t testing.TB, text string, opt CampaignOptions) SegmentCoverage {
	t.Helper()
	c, p := wholePartition(t, text)
	opt.Workers = 1
	rep, err := Campaign(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Segments[0]
}

func TestListEnumeratesBothPolarities(t *testing.T) {
	_, sg := wholeSegment(t, comb)
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
	cov := wholeCampaign(t, comb, CampaignOptions{Seed: 1})
	if cov.Detected != cov.Total {
		t.Fatalf("coverage %d/%d, undetected: %v", cov.Detected, cov.Total, cov.Undetected)
	}
	if cov.Ratio() != 1 {
		t.Fatalf("ratio = %v", cov.Ratio())
	}
}

// simulateSet runs faults on sg as one campaign stage runs one segment's
// fault set: packed by pack at words, every batch on the schedule of
// budget patterns whose session seeds nextSeed draws. It returns each
// fault's verdict.
func simulateSet(t testing.TB, sg *sim.Segment, faults []sim.Fault, budget uint64, nextSeed func() uint64, words int) []bool {
	t.Helper()
	env := newBatchEnv(sg)
	defer env.release()
	sched := newSchedule(sg, budget, 0, nextSeed)
	sole := len(faults) <= sim.LanesPerWord
	detected := make([]bool, len(faults))
	for _, b := range pack(len(faults), words, sched, sole) {
		eng, err := env.engine(b.words)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.runBatch(context.Background(), faults[b.lo:b.hi], sched, b.layout, sole); err != nil {
			t.Fatal(err)
		}
		for k := range b.hi - b.lo {
			detected[b.lo+k] = eng.Detected(k + 1)
		}
	}
	return detected
}

func TestSequentialCoverageHigh(t *testing.T) {
	// s27 driven through its 4 PIs with patterns pipelining through the
	// state, on 4096 patterns whose session seeds math/rand seed 1 draws:
	// the vast majority of faults must be caught.
	_, sg := wholeSegment(t, s27)
	faults := List(sg)
	detected := simulateSet(t, sg, faults, 4096, rand.New(rand.NewSource(1)).Uint64, sim.MaxLaneWords)
	var undetected []sim.Fault
	for i, d := range detected {
		if !d {
			undetected = append(undetected, faults[i])
		}
	}
	if ratio := 1 - float64(len(undetected))/float64(len(faults)); ratio < 0.85 {
		t.Fatalf("coverage %.2f too low; undetected %v", ratio, undetected)
	}
}

func TestCoverageDeterministic(t *testing.T) {
	c, p := wholePartition(t, s27)
	opt := CampaignOptions{Seed: 7, MaxPatterns: 512, Workers: 1}
	a, err := Campaign(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(context.Background(), c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, a), renderAll(t, b)) {
		t.Fatal("nondeterministic coverage report")
	}
}

func TestMaxPatternsRespected(t *testing.T) {
	if cov := wholeCampaign(t, comb, CampaignOptions{Seed: 1, MaxPatterns: 3}); cov.Patterns != 3 {
		t.Fatalf("patterns = %d, want 3", cov.Patterns)
	}
}

// TestBatching pins the batches of the packing rule on sets too long for
// the session cutoff: fault-parallel batches of sim.BatchLanes(words)
// faults, except on a sequential segment once every session gets a word,
// where the session layout packs sim.LanesPerWord faults a batch. A sole
// set stays fault-parallel, since its cutoff runs the sessions one after
// another.
func TestBatching(t *testing.T) {
	const fp, ss = sim.FaultParallel, sim.Sessions
	combSched, seqSched := &schedule{sessions: 1}, &schedule{sessions: maxBatchSessions}
	for _, tc := range []struct {
		n, words int
		sched    *schedule
		sole     bool
		want     []batchSpan
	}{
		{300, 4, combSched, false, []batchSpan{{0, 255, 4, fp}, {255, 300, 1, fp}}},
		{200, 1, combSched, false, []batchSpan{{0, 63, 1, fp}, {63, 126, 1, fp}, {126, 189, 1, fp}, {189, 200, 1, fp}}},
		{130, 4, seqSched, false, []batchSpan{{0, 63, 4, ss}, {63, 126, 4, ss}, {126, 130, 4, ss}}},
		{130, 2, seqSched, false, []batchSpan{{0, 127, 2, fp}, {127, 130, 1, fp}}},
		{40, 4, seqSched, true, []batchSpan{{0, 40, 1, fp}}},
		{0, 4, seqSched, false, nil},
	} {
		if got := pack(tc.n, tc.words, tc.sched, tc.sole); !slices.Equal(got, tc.want) {
			t.Errorf("pack(%d, %d, %d sessions, sole %v) = %v, want %v",
				tc.n, tc.words, tc.sched.sessions, tc.sole, got, tc.want)
		}
	}
}

// A partial final fault-parallel batch re-fits to the narrowest width that
// holds it; the re-fit is pure throughput and moves no verdict (the
// campaign's width-invariance tests pin that).
func TestPartialFinalBatchRefit(t *testing.T) {
	for _, tc := range []struct {
		n, words int
		want     []batchSpan
	}{
		{70, 4, []batchSpan{{0, 70, 2, sim.FaultParallel}}},
		{70, 1, []batchSpan{{0, 63, 1, sim.FaultParallel}, {63, 70, 1, sim.FaultParallel}}},
		{260, 4, []batchSpan{{0, 255, 4, sim.FaultParallel}, {255, 260, 1, sim.FaultParallel}}},
		{400, 4, []batchSpan{{0, 255, 4, sim.FaultParallel}, {255, 400, 4, sim.FaultParallel}}},
	} {
		if got := packFaultParallel(tc.n, tc.words); !slices.Equal(got, tc.want) {
			t.Errorf("packFaultParallel(%d, %d) = %v, want %v", tc.n, tc.words, got, tc.want)
		}
	}
}

func TestEmptyFaultList(t *testing.T) {
	if (Coverage{}).Ratio() != 1 {
		t.Fatal("empty coverage ratio != 1")
	}
	rep, err := Campaign(context.Background(), parse(t, comb), &partition.Result{}, CampaignOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 || rep.Batches != 0 || rep.Ratio() != 1 {
		t.Fatalf("empty campaign = %+v", rep)
	}
}

func TestUndetectedAreRedundant(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: SA1 on y is undetectable, SA0 on y
	// is detected on the first pattern.
	cov := wholeCampaign(t, constOne, CampaignOptions{Seed: 1})
	if !slices.Contains(cov.Undetected, sim.Fault{Signal: "y", Stuck1: true}) {
		t.Fatal("redundant SA1 on constant-1 output reported detected")
	}
	if slices.Contains(cov.Undetected, sim.Fault{Signal: "y"}) {
		t.Fatal("SA0 on constant-1 output must be detected")
	}
}
