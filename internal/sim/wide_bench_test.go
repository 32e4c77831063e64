package sim

// Kernel microbenchmarks: one LaneEngine.Step per op on the whole s641
// twin segment with a full batch of faults injected, the quantity the
// repository benchmark reports as sim.step_ns.w*. The number to watch is
// ns/op divided by the width's lane count (63/127/255): per-lane
// throughput is what the campaign's batch packing converts into wall
// clock.

import "testing"

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
