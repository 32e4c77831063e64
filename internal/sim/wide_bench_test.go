package sim

// Kernel microbenchmarks: one LaneEngine.Step per op on the whole s641
// twin segment with a full batch of faults injected, the quantity the
// repository benchmark reports as sim.step_ns.w*. The number to watch is
// ns/op divided by the width's lane count (63/127/255): per-lane
// throughput is what the campaign's batch packing converts into wall
// clock. BenchmarkLaneStepSessions times the session layout's StepWords
// on the same segment at each session-group width.

import (
	"fmt"
	"testing"
)

func benchLaneStep(b *testing.B, words int) {
	sg := twinSegment(b)
	e, err := sg.NewLaneEngine(words)
	if err != nil {
		b.Fatal(err)
	}
	faults := segmentFaults(sg)
	n := min(len(faults), e.Lanes())
	for i, f := range faults[:n] {
		if err := e.Inject(f, i+1); err != nil {
			b.Fatal(err)
		}
	}
	e.Arm(n)
	pattern := uint64(0x9e3779b97f4a7c15)
	for b.Loop() {
		e.Step(pattern)
		pattern ^= pattern << 13
		pattern ^= pattern >> 7
		pattern ^= pattern << 17
	}
}

func BenchmarkLaneStep1(b *testing.B) { benchLaneStep(b, 1) }
func BenchmarkLaneStep2(b *testing.B) { benchLaneStep(b, 2) }
func BenchmarkLaneStep4(b *testing.B) { benchLaneStep(b, 4) }

// benchLaneStepSessions times one four-session StepWords with lanes faults
// injected, which puts the groups at the narrowest width that holds them.
// No lane is armed, so none is detected and gives its slot back: the
// groups keep their width for the whole run.
func benchLaneStepSessions(b *testing.B, lanes, group, words int) {
	sg := twinSegment(b)
	e := newSessionEngine(sg, MaxLaneWords, false)
	for i, f := range segmentFaults(sg)[:lanes] {
		if err := e.Inject(f, i+1); err != nil {
			b.Fatal(err)
		}
	}
	if int(e.group) != group || len(lanePlanes(e, 0)) != words {
		b.Fatalf("%d lanes on %d-bit groups, %d words; want %d, %d", lanes, e.group, len(lanePlanes(e, 0)), group, words)
	}
	pats := []uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d}
	for b.Loop() {
		e.StepWords(pats)
		for s, p := range pats {
			p ^= p << 13
			p ^= p >> 7
			p ^= p << 17
			pats[s] = p
		}
	}
}

func BenchmarkLaneStepSessions(b *testing.B) {
	for _, c := range []struct{ lanes, group, words int }{{63, 64, 4}, {31, 32, 2}, {15, 16, 1}} {
		b.Run(fmt.Sprintf("g%d-W%d", c.group, c.words), func(b *testing.B) {
			benchLaneStepSessions(b, c.lanes, c.group, c.words)
		})
	}
}
