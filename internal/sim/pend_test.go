package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench89"
)

// pendCircuit has a gate g excited only when a and b are both 1, a
// flip-flop q that follows g one clock later, a buffer h of a, and a
// constant-0 gate z, so z stuck-at-0 is never excited.
const pendCircuit = `
INPUT(a)
INPUT(b)
OUTPUT(g)
OUTPUT(h)
OUTPUT(q)
OUTPUT(z)
g = AND(a, b)
h = BUF(a)
q = DFF(g)
n = NOT(a)
z = AND(a, n)
`

// pendPatterns returns clocks patterns for each of words sessions: a is 1
// on every clock of every session, and b is 1 only on clock bAt of
// session 0.
func pendPatterns(sg *Segment, words, clocks, bAt int) [][]uint64 {
	bit := func(name string) uint64 {
		for i, in := range sg.InputNames {
			if in == name {
				return 1 << uint(i)
			}
		}
		panic("no input " + name)
	}
	pats := make([][]uint64, clocks)
	for p := range pats {
		pats[p] = make([]uint64, words)
		for s := range pats[p] {
			pats[p][s] = bit("a")
			if s == 0 && p == bAt {
				pats[p][s] |= bit("b")
			}
		}
	}
	return pats
}

// A pending fault takes its lane on the clock that first excites it, and
// acts from that clock's settle on, so each case is detected on the same
// clock as the fault injected at reset, and no earlier. g stuck-at-0 is
// excited and observed on clock 5 only, so the clock must be settled
// again once g has its lane. q stuck-at-0 is first excited on clock 6,
// where q is observed before the latch, so the lane's current Q must be
// forced. q stuck-at-1 reads the reset value 0 on clock 0, which excites
// it, but a lane injected at reset still reads 0 there, so its Q is not
// forced until the first latch. With h stuck-at-0 detected on clock 0,
// the batch must wait for g, still pending, before it reports all
// detected.
func TestPendInjectsAtFirstExcitation(t *testing.T) {
	_, _, sg := segmentFixture(t, pendCircuit)
	const clocks, bAt = 12, 5
	for _, tc := range []struct {
		faults []Fault
		want   int // the clock on which Step first reports all detected
	}{
		{[]Fault{{Signal: "g"}}, bAt},
		{[]Fault{{Signal: "q"}}, bAt + 1},
		{[]Fault{{Signal: "q", Stuck1: true}}, 1},
		{[]Fault{{Signal: "h"}, {Signal: "g"}}, bAt},
	} {
		for _, words := range LaneWordSizes[1:] {
			e, err := sg.NewLaneEngine(words)
			if err != nil {
				t.Fatal(err)
			}
			e.SetLayout(Sessions)
			if err := e.Pend(tc.faults, 0, 0); err != nil {
				t.Fatal(err)
			}
			got := -1
			for p, pats := range pendPatterns(sg, words, clocks, bAt) {
				if e.StepWords(pats) && got < 0 {
					got = p
				}
			}
			if got != tc.want {
				t.Errorf("W=%d %v: all detected on clock %d, want %d", words, tc.faults, got, tc.want)
			}
			for k := range tc.faults {
				if lane := e.PendingLane(k); lane != k+1 || !e.Detected(lane) {
					t.Errorf("W=%d %v: fault %d in lane %d (detected %v), want lane %d detected",
						words, tc.faults, k, lane, e.Detected(lane), k+1)
				}
			}
		}
	}
}

// Faults due once every lane is taken spill (PendingLane -1) and the
// engine stops tracking the rest, so the batch may stop once its lanes
// are detected; an engine that skips the lanes earlier batches took gives
// the next faults due lanes 1.. in Pend order and waits for the faults
// still pending. Once fewer than need faults are pending, the rest take
// lanes at once.
func TestPendLaneOverflowAndGiveUp(t *testing.T) {
	var b strings.Builder
	b.WriteString("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n")
	var faults []Fault
	for i := range LanesPerWord + 7 {
		fmt.Fprintf(&b, "OUTPUT(b%d)\nb%d = BUF(a)\n", i, i)
		faults = append(faults, Fault{Signal: fmt.Sprintf("b%d", i)})
	}
	faults = append(faults, Fault{Signal: "z"}) // never excited
	_, _, sg := segmentFixture(t, b.String())
	for _, tc := range []struct {
		skip    int
		spilled bool
		allDet  bool // on the first clock
	}{
		{0, true, true},
		{LanesPerWord, false, false},
	} {
		e, err := sg.NewLaneEngine(2)
		if err != nil {
			t.Fatal(err)
		}
		e.SetLayout(Sessions)
		if err := e.Pend(faults, 0, tc.skip); err != nil {
			t.Fatal(err)
		}
		if got := e.StepWords([]uint64{1, 1}); got != tc.allDet {
			t.Errorf("skip %d: all detected %v on the first clock, want %v", tc.skip, got, tc.allDet)
		}
		if e.Spilled() != tc.spilled {
			t.Errorf("skip %d: spilled %v, want %v", tc.skip, e.Spilled(), tc.spilled)
		}
		for k := range faults {
			want := k + 1 - tc.skip
			switch {
			case k == len(faults)-1:
				want = 0
			case want < 1 || want > LanesPerWord:
				want = -1
			}
			if got := e.PendingLane(k); got != want {
				t.Fatalf("skip %d: fault %d in lane %d, want %d", tc.skip, k, got, want)
			}
		}
	}

	// z stuck-at-0 is never excited, h stuck-at-0 is on clock 0.
	_, _, sg = segmentFixture(t, pendCircuit)
	pend := []Fault{{Signal: "z"}, {Signal: "h"}}
	for _, tc := range []struct{ need, zLane int }{{1, 0}, {2, 2}} {
		e, err := sg.NewLaneEngine(2)
		if err != nil {
			t.Fatal(err)
		}
		e.SetLayout(Sessions)
		if err := e.Pend(pend, tc.need, 0); err != nil {
			t.Fatal(err)
		}
		for _, pats := range pendPatterns(sg, 2, 8, -1) {
			e.StepWords(pats)
		}
		if got := e.PendingLane(0); got != tc.zLane {
			t.Errorf("need %d: z stuck-at-0 in lane %d, want %d", tc.need, got, tc.zLane)
		}
		if got := e.PendingLane(1); got != 1 {
			t.Errorf("need %d: h stuck-at-0 in lane %d, want 1", tc.need, got)
		}
	}
}

// TestPendMatchesInjectedAtReset is the differential test of pending
// faults: on seeded random sequential circuits, a session-layout engine
// whose faults all start pending runs beside one whose faults are
// injected at reset. After every clock a fault's lane in the first equals
// its lane in the second at every signal of every session, and a fault
// still pending has its reference lane equal to the fault-free lane 0
// everywhere but at its own signal, which the latch may already have
// forced. The all-detected reports and the verdicts agree too. Each
// session count runs with its groups fixed at one word a session and
// with elastic groups, where a detected lane reads as the reference on
// both sides once it gives its slot back.
func TestPendMatchesInjectedAtReset(t *testing.T) {
	const clocks = 64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dffs := 2 + rng.Intn(16)
		sp := bench89.Spec{
			Name: "rand", PIs: 3 + rng.Intn(14), DFFs: dffs, Gates: 30 + rng.Intn(90),
			Inverters: rng.Intn(30), DFFsOnSCC: rng.Intn(dffs + 1),
		}
		sp.Area = float64(sp.DFFs*10+sp.Inverters) + 2.6*float64(sp.Gates)
		c, err := bench89.Generate(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, sg := wholeSegment(t, c)
		faults := segmentFaults(sg)
		for _, words := range LaneWordSizes[1:] {
			// Sparse patterns leave signals quiet for a while, so faults
			// are first excited throughout the run.
			pats := make([][]uint64, clocks)
			for p := range pats {
				pats[p] = make([]uint64, words)
				for s := range pats[p] {
					pats[p][s] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
			}
			for _, fixed := range []bool{true, false} {
				for lo := 0; lo < len(faults); lo += LanesPerWord {
					batch := faults[lo:min(lo+LanesPerWord, len(faults))]
					pend, ref := pendPair(t, sg, words, fixed, batch)
					for p := range pats {
						gotAll, wantAll := pend.StepWords(pats[p]), ref.StepWords(pats[p])
						if gotAll != wantAll {
							t.Fatalf("seed %d W=%d fixed %v clock %d: all detected %v, reference %v", seed, words, fixed, p, gotAll, wantAll)
						}
						for k, f := range batch {
							lane := pend.PendingLane(k)
							for sig := range sg.names {
								if lane == 0 && sig == sg.index[f.Signal] {
									continue // a flip-flop fault's latch may differ before its next settle excites it
								}
								for s := range words {
									want := laneBit(ref, sig, s, k+1)
									got := laneBit(ref, sig, s, 0) // a pending fault's reference lane equals lane 0
									if lane > 0 {
										got = laneBit(pend, sig, s, lane)
									}
									if got != want {
										t.Fatalf("seed %d W=%d fixed %v clock %d %v (lane %d): %s session %d = %d, reference %d",
											seed, words, fixed, p, f, lane, sg.names[sig], s, got, want)
									}
								}
							}
						}
					}
					for k, f := range batch {
						lane := pend.PendingLane(k)
						if got := lane > 0 && pend.Detected(lane); got != ref.Detected(k+1) {
							t.Fatalf("seed %d W=%d fixed %v %v: detected %v, reference %v", seed, words, fixed, f, got, ref.Detected(k+1))
						}
					}
				}
			}
		}
	}
}

// pendPair returns two session-layout engines of words sessions: one with
// faults pending, one with fault k injected at reset in lane k+1 and every
// lane armed.
func pendPair(t *testing.T, sg *Segment, words int, fixed bool, faults []Fault) (pend, ref LaneEngine) {
	t.Helper()
	pend, ref = newSessionEngine(sg, words, fixed), newSessionEngine(sg, words, fixed)
	if err := pend.Pend(faults, 0, 0); err != nil {
		t.Fatal(err)
	}
	for k, f := range faults {
		if err := ref.Inject(f, k+1); err != nil {
			t.Fatal(err)
		}
	}
	ref.Arm(len(faults))
	return pend, ref
}
