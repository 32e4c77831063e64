package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench89"
)

// TestElasticMatchesFixed is the differential test of elastic session
// groups: on seeded random sequential circuits and the s641 twin, an
// engine of four sessions whose groups narrow and widen with its live
// lanes, and whose detected lanes give their slots back, runs beside one
// with its groups fixed at one word a session, on the same four-session
// patterns. Pending sets (with random need and skip) and armed sets are
// drawn at random; after every clock the all-detected report, Spilled,
// and every logical lane's PendingLane and Detected must agree. The hold
// is cut to one clock so that the elastic engine regroups often, and the
// test checks that the runs covered what the elastic engine adds:
// regroups in both directions, a recycled slot taken again, a
// flip-flop-output fault placed after a latch, and a need give-up that
// widens the vector.
func TestElasticMatchesFixed(t *testing.T) {
	const clocks = 160
	var seen struct{ widen, narrow, reuse, ffLater, giveUpWiden bool }
	var segs []*Segment
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dffs := 4 + rng.Intn(16)
		sp := bench89.Spec{
			Name: "rand", PIs: 3 + rng.Intn(10), DFFs: dffs, Gates: 40 + rng.Intn(90),
			Inverters: rng.Intn(30), DFFsOnSCC: rng.Intn(dffs + 1),
		}
		sp.Area = float64(sp.DFFs*10+sp.Inverters) + 2.6*float64(sp.Gates)
		c, err := bench89.Generate(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, sg := wholeSegment(t, c)
		segs = append(segs, sg)
	}
	segs = append(segs, twinSegment(t))

	rng := rand.New(rand.NewSource(11))
	for si, sg := range segs {
		isQ := make(map[string]bool)
		for _, d := range sg.dffs {
			isQ[sg.names[d.out]] = true
		}
		all := segmentFaults(sg)
		for trial := range 12 {
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			faults := all[:min(len(all), 8+rng.Intn(100))]
			armed := trial%3 == 2
			need, skip := 0, 0
			switch {
			case armed:
				faults = faults[:min(len(faults), LanesPerWord)]
			case trial%3 == 1:
				need = len(faults) + 1 // every fault is due on clock 0
			default:
				need, skip = rng.Intn(len(faults)/2+1), rng.Intn(3)*LanesPerWord/2
			}
			el, fx := newSessionEngine(sg, 4, false), newSessionEngine(sg, 4, true)
			for _, e := range []*engine{el, fx} {
				// A clock with no fault narrows the elastic engine, so
				// that a give-up on the first clock below must widen it.
				e.StepWords(make([]uint64, 4))
				if armed {
					for k, f := range faults {
						if err := e.Inject(f, k+1); err != nil {
							t.Fatal(err)
						}
					}
					e.Arm(len(faults))
				} else if err := e.Pend(faults, need, skip); err != nil {
					t.Fatal(err)
				}
				e.ResetState()
				e.hold, e.holdUntil = 1, 0
			}
			// Sparse patterns leave signals quiet for a while, so faults
			// are first excited, and detected, throughout the run.
			pats := make([]uint64, 4)
			held := make(map[uint8]int) // slot -> the last lane that held it
			placed := make([]bool, len(faults))
			for p := range clocks {
				for s := range pats {
					pats[s] = rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
				g, pending := el.group, len(el.pend)
				gotAll, wantAll := el.StepWords(pats), fx.StepWords(pats)
				if gotAll != wantAll {
					t.Fatalf("seg %d trial %d clock %d: all detected %v, fixed %v", si, trial, p, gotAll, wantAll)
				}
				if el.Spilled() != fx.Spilled() {
					t.Fatalf("seg %d trial %d clock %d: spilled %v, fixed %v", si, trial, p, el.Spilled(), fx.Spilled())
				}
				seen.widen = seen.widen || el.group > g
				seen.narrow = seen.narrow || el.group < g
				seen.giveUpWiden = seen.giveUpWiden || el.group > g && pending > 0 && pending < need && len(el.pend) == 0
				for lane := 1; lane <= LanesPerWord; lane++ {
					if el.Detected(lane) != fx.Detected(lane) {
						t.Fatalf("seg %d trial %d clock %d: lane %d detected %v, fixed %v",
							si, trial, p, lane, el.Detected(lane), fx.Detected(lane))
					}
					if slot := el.slotOf[lane]; slot != 0 {
						if prev, ok := held[slot]; ok && prev != lane {
							seen.reuse = true
						}
						held[slot] = lane
					}
				}
				if armed {
					continue
				}
				for k, f := range faults {
					lane := el.PendingLane(k)
					if lane != fx.PendingLane(k) {
						t.Fatalf("seg %d trial %d clock %d: %v in lane %d, fixed %d", si, trial, p, f, lane, fx.PendingLane(k))
					}
					if lane > 0 && !placed[k] {
						placed[k] = true
						seen.ffLater = seen.ffLater || p > 0 && isQ[f.Signal]
					}
				}
			}
		}
	}
	if !seen.widen || !seen.narrow || !seen.reuse || !seen.ffLater || !seen.giveUpWiden {
		t.Errorf("runs did not cover every elastic path: %+v", seen)
	}
}

// An engine with no live lane narrows to 16-bit groups after one clock,
// and a need give-up that places more faults than the free slots hold
// widens the vector before any fault takes a slot: forty faults that are
// never excited take lanes 1..40 at once on 64-bit groups.
func TestElasticGiveUpWidens(t *testing.T) {
	_, _, sg := segmentFixture(t, pendCircuit)
	faults := make([]Fault, 40)
	for i := range faults {
		faults[i] = Fault{Signal: "z"} // z stuck-at-0 is never excited
	}
	e := newSessionEngine(sg, 4, false)
	e.StepWords(make([]uint64, 4))
	if e.group != 16 {
		t.Fatalf("empty engine on %d-bit groups after a clock, want 16", e.group)
	}
	if err := e.Pend(faults, len(faults)+1, 0); err != nil {
		t.Fatal(err)
	}
	e.StepWords(make([]uint64, 4))
	if e.group != 64 || len(lanePlanes(e, 0)) != 4 {
		t.Fatalf("after the give-up: %d-bit groups on %d words, want 64 on 4", e.group, len(lanePlanes(e, 0)))
	}
	for k := range faults {
		if lane := e.PendingLane(k); lane != k+1 {
			t.Fatalf("fault %d in lane %d, want %d", k, lane, k+1)
		}
	}
}
