package fault

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// The excitation pre-pass moves no verdict: on every pinned operating
// point, at every packing width, the rendered reports are byte-identical
// with the pre-pass on and off, and the pre-pass does prune there.
func TestCampaignPrepassOffByteIdentical(t *testing.T) {
	for _, tc := range pinnedCampaigns {
		c, p := compilePartition(t, tc.circuit, tc.lk)
		for _, words := range sim.LaneWordSizes {
			t.Run(fmt.Sprintf("%s@%d/W%d", tc.circuit, tc.lk, words), func(t *testing.T) {
				opt := CampaignOptions{MaxPatterns: tc.max, Seed: 1, Workers: 2, Collapse: true, maxWords: words}
				on, err := Campaign(context.Background(), c, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.noExcite = true
				off, err := Campaign(context.Background(), c, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if on.Unexcited == 0 || off.Unexcited != 0 {
					t.Fatalf("unexcited on %d, off %d: want on > 0, off 0", on.Unexcited, off.Unexcited)
				}
				if on.Survivors != off.Survivors {
					t.Fatalf("survivors on %d, off %d", on.Survivors, off.Survivors)
				}
				if !bytes.Equal(renderAll(t, on), renderAll(t, off)) {
					t.Fatal("report with the pre-pass differs from the report without it")
				}
			})
		}
	}
}

// soleCircuit is one sequential segment whose escalation survivors are
// the 70 constant-0 AND outputs c1..c70 stuck at 0 (never excited), the
// inverter b stuck at 0 (excited, never observed) and the 6-input AND g
// stuck at 0, which only the all-ones pattern on x1..x6 detects.
func soleCircuit() string {
	var b strings.Builder
	b.WriteString("INPUT(a)\nOUTPUT(g)\nOUTPUT(q)\nb = NOT(a)\nq = DFF(a)\n")
	xs := make([]string, 6)
	for j := range xs {
		xs[j] = fmt.Sprintf("x%d", j+1)
		fmt.Fprintf(&b, "INPUT(%s)\nOUTPUT(o%d)\no%d = BUF(%s)\n", xs[j], j+1, j+1, xs[j])
	}
	fmt.Fprintf(&b, "g = AND(%s)\n", strings.Join(xs, ", "))
	for i := 1; i <= 70; i++ {
		fmt.Fprintf(&b, "OUTPUT(c%d)\nc%d = AND(a, b)\n", i, i)
	}
	return b.String()
}

// The session cutoff is decided on the survivors before the pre-pass
// prunes them. Here 72 survivors (more than one word) shrink to 2, and
// the cutoff on those 2 would end their batch after a silent first
// session, before g stuck-at-0 is detected in a later one. Deciding the
// cutoff after pruning would lose that detection.
func TestCampaignSoleDecidedBeforePruning(t *testing.T) {
	ctx := context.Background()
	c, p := wholePartition(t, soleCircuit())
	opt := CampaignOptions{MaxPatterns: 128, Seed: 1, Workers: 2, Collapse: true, TriagePatterns: 16}
	gSA0 := sim.Fault{Signal: "g"}

	// The fixture still exercises the cutoff: the two kept survivors as a
	// cutoff batch miss g stuck-at-0, and without the cutoff detect it.
	segs, err := buildSegments(ctx, c, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	sched := newSchedule(segs[0].sg, segs[0].budget, 0, seedStream(opt.Seed, 1, 0))
	env := newBatchEnv(segs[0].sg)
	defer env.release()
	eng, err := env.engine(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sole := range []bool{true, false} {
		if err := env.runBatch(ctx, []sim.Fault{gSA0, {Signal: "b"}}, sched, sim.FaultParallel, sole); err != nil {
			t.Fatal(err)
		}
		if eng.Detected(1) == sole {
			t.Fatalf("fixture: with cutoff %v, g stuck-at-0 detected = %v", sole, eng.Detected(1))
		}
	}

	for _, words := range sim.LaneWordSizes {
		opt.maxWords, opt.noExcite = words, false
		on, err := Campaign(ctx, c, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if on.Survivors <= sim.LanesPerWord || on.Survivors-on.Unexcited > sim.LanesPerWord {
			t.Fatalf("W%d: %d survivors, %d unexcited: want more than %d before pruning and at most %d after",
				words, on.Survivors, on.Unexcited, sim.LanesPerWord, sim.LanesPerWord)
		}
		if slices.Contains(on.Segments[0].Undetected, gSA0) {
			t.Fatalf("W%d: g stuck-at-0 undetected with the pre-pass", words)
		}
		opt.noExcite = true
		off, err := Campaign(ctx, c, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderAll(t, on), renderAll(t, off)) {
			t.Fatalf("W%d: report with the pre-pass differs from the report without it", words)
		}
	}
}

// Every fault the pre-pass proves unexcited on a segment's escalation
// schedule stays undetected when simulated alone on that schedule. The
// pre-pass runs over every representative here, not just triage
// survivors, and without the give-up rule, so it prunes all it can.
func TestCampaignPrunedFaultsUndetectedAlone(t *testing.T) {
	ctx := context.Background()
	for _, pt := range []struct {
		circuit string
		lk      int
	}{{"s1423", 12}, {"s5378", 12}} {
		c, p := compilePartition(t, pt.circuit, pt.lk)
		segs, err := buildSegments(ctx, c, p, CampaignOptions{Collapse: true})
		if err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for si, cs := range segs {
			sched := newSchedule(cs.sg, cs.budget, 0, seedStream(1, 1, si))
			all := make([]int, len(cs.reps))
			for i := range all {
				all[i] = i
			}
			kept, err := cs.excite(ctx, all, sched, 1)
			if err != nil {
				t.Fatal(err)
			}
			env := newBatchEnv(cs.sg)
			eng, err := env.engine(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, ri := range minus(all, kept) {
				pruned++
				f := cs.reps[ri]
				if err := env.runBatch(ctx, []sim.Fault{f}, sched, sim.FaultParallel, false); err != nil {
					t.Fatal(err)
				}
				if eng.Detected(1) {
					t.Errorf("%s@%d cluster %d: pruned fault %v detected alone", pt.circuit, pt.lk, cs.cluster.ID, f)
				}
			}
			env.release()
		}
		if pruned == 0 {
			t.Errorf("%s@%d: the pre-pass pruned nothing", pt.circuit, pt.lk)
		}
	}
}

// When fewer faults stay unexcited than the caller needs, the pre-pass
// gives up and prunes nothing; at exactly the unexcited count it prunes
// them all.
func TestCampaignPrepassGivesUp(t *testing.T) {
	ctx := context.Background()
	c, p := compilePartition(t, "s1423", 12)
	segs, err := buildSegments(ctx, c, p, CampaignOptions{Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for si, cs := range segs {
		sched := newSchedule(cs.sg, cs.budget, 0, seedStream(1, 1, si))
		all := make([]int, len(cs.reps))
		for i := range all {
			all[i] = i
		}
		kept, err := cs.excite(ctx, all, sched, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := len(all) - len(kept)
		if n == 0 {
			continue
		}
		checked++
		if got, err := cs.excite(ctx, all, sched, n+1); err != nil || len(got) != len(all) {
			t.Fatalf("cluster %d, need %d of %d unexcited: kept %d of %d (err %v), want all",
				cs.cluster.ID, n+1, n, len(got), len(all), err)
		}
		if got, err := cs.excite(ctx, all, sched, n); err != nil || len(got) != len(kept) {
			t.Fatalf("cluster %d, need %d of %d unexcited: kept %d, want %d (err %v)",
				cs.cluster.ID, n, n, len(got), len(kept), err)
		}
	}
	if checked == 0 {
		t.Fatal("no segment has an unexcited fault")
	}
}

// pruneNeed is the fewest removals that lower the packed word count: full
// 255-lane batches at 4 words, the last batch re-fit to 1, 2 or 4 words.
func TestPruneNeed(t *testing.T) {
	for _, tc := range []struct{ n, words, want int }{
		{1, 4, 1},     // one word down to none
		{63, 4, 63},   // one word: every fault must go
		{64, 4, 1},    // 2 words -> 1
		{127, 4, 64},  // 2 words down to 1 needs 63 left
		{128, 4, 1},   // 4 words -> 2
		{255, 4, 128}, // a full batch down to 2 words
		{264, 4, 9},   // 4 + 1 words -> 4
		{264, 1, 12},  // 5 one-word batches: 4 full and 12 over
		{126, 1, 63},  // exactly 2 full one-word batches
	} {
		if got := pruneNeed(tc.n, tc.words); got != tc.want {
			t.Errorf("pruneNeed(%d, %d) = %d, want %d", tc.n, tc.words, got, tc.want)
		}
	}
}

// minus returns the elements of all (ascending) that are not in kept (an
// ascending subsequence of all).
func minus(all, kept []int) []int {
	var out []int
	for _, x := range all {
		if len(kept) > 0 && kept[0] == x {
			kept = kept[1:]
			continue
		}
		out = append(out, x)
	}
	return out
}

// pendingCircuit is one sequential circuit, every name prefixed with p,
// whose escalation survivors are, after a short triage: stuck-at faults on
// dangling gates d1..dN, which the first clocks excite and nothing
// observes; the constant-0 gates c1..cM stuck at 0, never excited; and
// the 6-input AND g stuck at 0, which only the all-ones pattern on x1..x6
// excites and detects, so it is excited after the dangling faults have
// taken every lane.
func pendingCircuit(p string, dangling, consts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INPUT(%[1]sa)\nINPUT(%[1]sy)\nOUTPUT(%[1]sg)\nOUTPUT(%[1]sq)\n%[1]sq = DFF(%[1]sa)\n", p)
	xs := make([]string, 6)
	for j := range xs {
		xs[j] = fmt.Sprintf("%sx%d", p, j+1)
		fmt.Fprintf(&b, "INPUT(%[2]s)\nOUTPUT(%[1]so%[3]d)\n%[1]so%[3]d = BUF(%[2]s)\n", p, xs[j], j+1)
	}
	fmt.Fprintf(&b, "%sg = AND(%s)\n", p, strings.Join(xs, ", "))
	for i := 1; i <= dangling; i++ {
		fmt.Fprintf(&b, "%[1]sd%[2]d = XOR(%[1]sy, %[3]s)\n", p, i, xs[i%len(xs)])
	}
	for i := 1; i <= consts; i++ {
		fmt.Fprintf(&b, "OUTPUT(%[1]sc%[2]d)\n%[1]sc%[2]d = XOR(%[1]sa, %[1]sa)\n", p, i)
	}
	return b.String()
}

// prefixPartition parses a netlist and partitions it by name prefix, the
// text before the first "_": one cluster per prefix, holding its cells,
// fed by its primary inputs.
func prefixPartition(t testing.TB, text string) (*netlist.Circuit, *partition.Result) {
	t.Helper()
	c := parse(t, text)
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	byPrefix := map[string]*partition.Cluster{}
	var clusters []*partition.Cluster
	cluster := func(name string) *partition.Cluster {
		pre, _, _ := strings.Cut(name, "_")
		cl := byPrefix[pre]
		if cl == nil {
			cl = &partition.Cluster{ID: len(clusters), InputNets: make(map[int]struct{})}
			byPrefix[pre] = cl
			clusters = append(clusters, cl)
		}
		return cl
	}
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) {
			cl := cluster(n.Name)
			cl.Nodes = append(cl.Nodes, n.ID)
		}
	}
	for e := range g.Nets {
		if g.Nodes[g.Nets[e].Source].Kind == graph.KindPI {
			cluster(g.Nets[e].Name).InputNets[e] = struct{}{}
		}
	}
	return c, &partition.Result{G: g, Clusters: clusters}
}

// quietCircuit is a sequential circuit, every name prefixed with p, whose
// escalation survivors are the constant-0 gates c1..cN stuck at 0, none of
// them ever excited.
func quietCircuit(p string, consts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INPUT(%[1]sa)\nOUTPUT(%[1]sq)\n%[1]sq = DFF(%[1]sa)\n", p)
	for i := 1; i <= consts; i++ {
		fmt.Fprintf(&b, "OUTPUT(%[1]sc%[2]d)\n%[1]sc%[2]d = XOR(%[1]sa, %[1]sa)\n", p, i)
	}
	return b.String()
}

// burstCircuit is a sequential circuit, every name prefixed with p, whose
// escalation survivors are the 6-input AND g and the gates h1..hN =
// AND(g, x) stuck at 0: the first all-ones pattern on x1..x6 excites and
// detects them all on one clock.
func burstCircuit(p string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "INPUT(%[1]sa)\nOUTPUT(%[1]sq)\n%[1]sq = DFF(%[1]sa)\n", p)
	xs := make([]string, 6)
	for j := range xs {
		xs[j] = fmt.Sprintf("%sx%d", p, j+1)
		fmt.Fprintf(&b, "INPUT(%[2]s)\nOUTPUT(%[1]so%[3]d)\n%[1]so%[3]d = BUF(%[2]s)\n", p, xs[j], j+1)
	}
	fmt.Fprintf(&b, "%sg = AND(%s)\n", p, strings.Join(xs, ", "))
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "OUTPUT(%[1]sh%[2]d)\n%[1]sh%[2]d = AND(%[1]sg, %[3]s)\n", p, i, xs[i%len(xs)])
	}
	return b.String()
}

// A set that packs in the session layout runs a chain of batches that
// start with every survivor pending, each taking the survivors excited
// after those of the batches before it. The campaign here has five
// segments:
//
//   - A: 40 dangling gates and 10 never-excited faults. More survivors
//     are excited than one batch has lanes, so the rest, g stuck-at-0
//     among them, spill to a second batch; dropping it would lose g's
//     detection. The give-up rule fires (93 survivors, pruneNeed(93, 4) =
//     30), so every survivor takes a lane and none is unexcited.
//   - B: the same with 50 never-excited faults (133 survivors, pruneNeed
//     6), which stay unexcited.
//   - C: no dangling gates and 70 never-excited faults. g stuck-at-0 is
//     the one survivor ever excited, and the batch must not stop before
//     then: with no lane armed, every armed lane is detected from the
//     first clock.
//   - D: few enough survivors for the session cutoff, so it runs the
//     excitation pre-pass instead, beside the chains.
//   - E: 70 survivors, none ever excited. Its first batch hands out no
//     lane, so it is not counted: the escalation batches are those of
//     packing the survivors the pre-pass keeps.
//   - F: 71 survivors, all excited and detected on one clock. The first
//     batch spills on the clock its lanes are all detected, and must
//     still start the second before it stops.
//
// At one and four workers, the report, Survivors and Unexcited equal
// those of the pre-pass, which every set runs below 4 words, the report
// equals the one without pruning at all, and the batch counts are equal.
func TestCampaignPendingChain(t *testing.T) {
	ctx := context.Background()
	c, p := prefixPartition(t, pendingCircuit("A_", 40, 10)+pendingCircuit("B_", 40, 50)+
		pendingCircuit("C_", 0, 70)+pendingCircuit("D_", 10, 5)+quietCircuit("E_", 70)+burstCircuit("F_", 70))
	// A's 93 and B's 83 kept survivors take two batches each, C's one,
	// D's survivors one fault-parallel batch, E's none, and F's 71 two.
	const unexcited, escalation = 50 + 70 + 70, 2 + 2 + 1 + 1 + 0 + 2
	var want []byte
	for _, words := range []int{1, sim.MaxLaneWords} {
		for _, workers := range []int{1, 4} {
			opt := CampaignOptions{MaxPatterns: 1024, Seed: 1, Workers: workers, Collapse: true, TriagePatterns: 16, maxWords: words}
			rep, err := Campaign(ctx, c, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Unexcited != unexcited {
				t.Fatalf("W%d workers %d: %d of %d survivors unexcited, want %d", words, workers, rep.Unexcited, rep.Survivors, unexcited)
			}
			for _, sc := range rep.Segments {
				if slices.ContainsFunc(sc.Undetected, func(f sim.Fault) bool { return strings.HasSuffix(f.Signal, "_g") && !f.Stuck1 }) {
					t.Fatalf("W%d workers %d: cluster %d: g stuck-at-0 undetected", words, workers, sc.Cluster)
				}
			}
			got := renderAll(t, rep)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("W%d workers %d: report differs from W1", words, workers)
			}
			if words < sim.MaxLaneWords {
				continue
			}
			if esc := rep.Batches - rep.TriageBatches; esc != escalation {
				t.Fatalf("workers %d: %d escalation batches, want %d", workers, esc, escalation)
			}
			opt.noExcite = true
			off, err := Campaign(ctx, c, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderAll(t, off), want) {
				t.Fatalf("workers %d: report without pruning differs", workers)
			}
		}
	}
}
