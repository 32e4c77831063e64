package fault

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

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
