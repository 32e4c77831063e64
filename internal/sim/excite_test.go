package sim

import (
	"context"
	"slices"
	"testing"
)

// c17 is the ISCAS85 c17 netlist: a segment without flip-flops, so the
// pre-pass packs 64 consecutive patterns per word.
const c17 = `
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i6)
INPUT(i7)
OUTPUT(g22)
OUTPUT(g23)
g10 = NAND(i1, i3)
g11 = NAND(i3, i6)
g16 = NAND(i2, g11)
g19 = NAND(g11, i7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
`

// skewedSources returns n deterministic pattern sources whose bits are
// set with probability 1/8 (or 7/8 when dense), so short schedules leave
// some signals constant. Dense patterns rarely drive an input to 0, which
// exposes lanes that do not replay a real pattern.
func skewedSources(n int, seed uint64, dense bool) []func() uint64 {
	var flip uint64
	if dense {
		flip = ^uint64(0)
	}
	srcs := make([]func() uint64, n)
	for s := range srcs {
		x := seed + uint64(s+1)*0x9e3779b97f4a7c15
		srcs[s] = func() uint64 {
			var p uint64 = ^uint64(0)
			for range 3 {
				x = x*6364136223846793005 + 1442695040888963407
				p &= x >> 11
			}
			return p ^ flip
		}
	}
	return srcs
}

// referenceUnexcited steps a fault-free one-word engine session by session
// and returns the positions of the faults whose signal never took its
// non-stuck value: a flip-flop output is read before the clock's latch,
// every other signal after the settle.
func referenceUnexcited(t *testing.T, sg *Segment, faults []Fault, srcs []func() uint64, perSession uint64) []int {
	t.Helper()
	e, err := sg.NewLaneEngine(1)
	if err != nil {
		t.Fatal(err)
	}
	isQ := make([]bool, len(sg.names))
	for _, d := range sg.dffs {
		isQ[d.out] = true
	}
	seen0 := make([]bool, len(sg.names))
	seen1 := make([]bool, len(sg.names))
	pre := make([]uint64, len(sg.names))
	for _, src := range srcs {
		e.ResetState()
		for range perSession {
			for i := range pre {
				pre[i] = lanePlanes(e, i)[0]
			}
			e.Step(src())
			for i := range sg.names {
				x := lanePlanes(e, i)[0]
				if isQ[i] {
					x = pre[i]
				}
				seen1[i] = seen1[i] || x&1 != 0
				seen0[i] = seen0[i] || x&1 == 0
			}
		}
	}
	var out []int
	for fi, f := range faults {
		i := sg.index[f.Signal]
		if f.Stuck1 && !seen0[i] || !f.Stuck1 && !seen1[i] {
			out = append(out, fi)
		}
	}
	return out
}

// Unexcited packs sessions (sequential segments) or consecutive patterns
// (combinational ones) into lanes, and must find exactly the faults a
// session-by-session fault-free run never excites — including across a
// partial last word and on flip-flop outputs at clock 0.
func TestUnexcitedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sg         *Segment
		sessions   int
		perSession uint64
		dense      bool
	}{
		{"s27", segmentOf(t, s27), 4, 6, false},
		{"s27-dense", segmentOf(t, s27), 2, 4, true},
		{"s27-one-session", segmentOf(t, s27), 1, 3, false},
		{"s641", twinSegment(t), 3, 9, false},
		{"c17", segmentOf(t, c17), 2, 5, false},
		{"c17-dense", segmentOf(t, c17), 2, 5, true},
		{"c17-two-words", segmentOf(t, c17), 3, 30, false},
	} {
		faults := segmentFaults(tc.sg)
		want := referenceUnexcited(t, tc.sg, faults, skewedSources(tc.sessions, 7, tc.dense), tc.perSession)
		if len(want) == 0 || len(want) == len(faults) {
			t.Fatalf("%s: reference finds %d of %d faults unexcited; the case does not discriminate",
				tc.name, len(want), len(faults))
		}
		got, err := tc.sg.Unexcited(context.Background(), faults, skewedSources(tc.sessions, 7, tc.dense), tc.perSession, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Unexcited = %v, reference %v", tc.name, got, want)
		}
	}
}

// With need above what can stay unexcited, Unexcited gives up at its
// first tally, 64 clocks in, instead of running the whole schedule.
func TestUnexcitedGivesUpEarly(t *testing.T) {
	sg := twinSegment(t)
	faults := segmentFaults(sg)
	calls := 0
	srcs := skewedSources(4, 3, false)
	for s, src := range srcs {
		srcs[s] = func() uint64 { calls++; return src() }
	}
	got, err := sg.Unexcited(context.Background(), faults, srcs, 1000, len(faults))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || calls != 4*64 {
		t.Fatalf("Unexcited = %v after %d pattern draws, want nil after %d", got, calls, 4*64)
	}
	if _, err := sg.Unexcited(context.Background(), []Fault{{Signal: "nope"}}, srcs, 1, 1); err == nil {
		t.Fatal("unknown fault signal accepted")
	}
}

func segmentOf(t *testing.T, text string) *Segment {
	t.Helper()
	_, _, sg := segmentFixture(t, text)
	return sg
}
