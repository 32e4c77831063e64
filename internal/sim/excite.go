package sim

import (
	"context"
	"fmt"
)

// Unexcited runs the fault-free segment over a pattern schedule and
// returns the ascending indices of the faults it never excites: faults
// whose signal holds the stuck value after the settle of every clock.
//
// The schedule is len(sessions) sessions of perSession clocks each; every
// session starts from the reset state and draws its patterns from its own
// source, exactly as a LaneEngine batch runs it. The runs are independent
// bit lanes of one scalar word: a sequential segment gives each session a
// lane, and a segment without flip-flops puts 64 consecutive patterns of
// the session-by-session stream in one word. Unused lanes replay lane 0.
//
// A single stuck-at-v fault whose signal is v on every clock can never be
// detected on this schedule: by induction over clocks, and over program
// order within a clock, its faulty lane equals the fault-free lane at every
// signal. A flip-flop-output fault is not forced until the first latch
// after a reset, and clock 0 records the reset value 0, so the rule holds
// there too.
//
// Unexcited gives up, returning nil, as soon as fewer than need faults
// remain unexcited: the count only falls as the schedule runs, so a caller
// for which pruning fewer than need faults is not worth the rest of the
// pass stops paying for it there. Otherwise it runs to the end of the
// schedule.
func (sg *Segment) Unexcited(ctx context.Context, faults []Fault, sessions []func() uint64, perSession uint64, need int) ([]int, error) {
	seq := len(sg.dffs) > 0
	if seq && len(sessions) > 64 {
		return nil, fmt.Errorf("sim: %d sessions do not fit one word of lanes", len(sessions))
	}
	if len(faults) < need || len(sessions) == 0 || perSession == 0 {
		return nil, nil
	}

	// await[sig] says which values a pending fault on sig still waits for:
	// awaitOne for a stuck-at-0 fault, awaitZero for a stuck-at-1 fault.
	// sites lists the awaited signals; seen0/seen1 accumulate, per site,
	// the lanes in which it was 0 or 1.
	const awaitOne, awaitZero = 1, 2
	await := make([]uint8, len(sg.names))
	pending := make([]int32, 2*len(sg.names)) // faults per (signal, polarity)
	var sites []int32
	//ctxlint:nocancel one index lookup per fault; the clock loop below polls ctx
	for _, f := range faults {
		i, ok := sg.index[f.Signal]
		if !ok {
			return nil, fmt.Errorf("sim: unknown fault signal %q", f.Signal)
		}
		if await[i] == 0 {
			sites = append(sites, int32(i))
		}
		bit, k := uint8(awaitOne), 2*i
		if f.Stuck1 {
			bit, k = awaitZero, 2*i+1
		}
		await[i] |= bit
		pending[k]++
	}
	unexcited := len(faults)
	seen0 := make([]uint64, len(sites))
	seen1 := make([]uint64, len(sites))
	// tally drops from the tracked sites every awaited value seen so far
	// and reports whether enough faults remain unexcited to go on.
	tally := func() bool {
		kept := 0
		//ctxlint:nocancel one pass over the tracked sites, from inside the polled clock loop
		for k, i := range sites {
			if await[i]&awaitOne != 0 && seen1[k] != 0 {
				await[i] &^= awaitOne
				unexcited -= int(pending[2*i])
			}
			if await[i]&awaitZero != 0 && seen0[k] != 0 {
				await[i] &^= awaitZero
				unexcited -= int(pending[2*i+1])
			}
			if await[i] != 0 {
				sites[kept], seen0[kept], seen1[kept] = i, seen0[k], seen1[k]
				kept++
			}
		}
		sites, seen0, seen1 = sites[:kept], seen0[:kept], seen1[:kept]
		return unexcited >= need
	}

	clocks := perSession
	total := uint64(len(sessions)) * perSession
	if !seq {
		clocks = (total + 63) / 64
	}
	v := make([]uint64, len(sg.names))
	in := make([]uint64, len(sg.inputs))
	next := make([]uint64, len(sg.dffs))
	var drawn uint64 // patterns drawn so far (segments without flip-flops)
	for t := uint64(0); t < clocks; t++ {
		if t&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		clear(in)
		lanes := 0
		if seq {
			for lanes < len(sessions) {
				spread(in, sessions[lanes](), lanes)
				lanes++
			}
		} else {
			for ; lanes < 64 && drawn < total; lanes++ {
				spread(in, sessions[drawn/perSession](), lanes)
				drawn++
			}
		}
		if lanes < 64 {
			used := uint64(1)<<uint(lanes) - 1
			for i, w := range in {
				in[i] = w | -(w&1)&^used
			}
		}
		for i, sig := range sg.inputs {
			v[sig] = in[i]
		}
		sg.prog.eval(v)
		for k, i := range sites {
			x := v[i]
			seen1[k] |= x
			seen0[k] |= ^x
		}
		if t&63 == 63 && !tally() {
			return nil, nil
		}
		for i, d := range sg.dffs {
			next[i] = v[d.in]
		}
		for i, d := range sg.dffs {
			v[d.out] = next[i]
		}
	}
	if !tally() {
		return nil, nil
	}
	var out []int
	for fi, f := range faults {
		bit := uint8(awaitOne)
		if f.Stuck1 {
			bit = awaitZero
		}
		if await[sg.index[f.Signal]]&bit != 0 {
			out = append(out, fi)
		}
	}
	return out, nil
}

// ctxCheckMask throttles Unexcited's context polling to every 8192th
// clock, starting with the first.
const ctxCheckMask = 8192 - 1

// spread writes bit i of pattern into bit lane of in[i], one word per
// segment input.
func spread(in []uint64, pattern uint64, lane int) {
	for i := range in {
		in[i] |= (pattern >> uint(i) & 1) << uint(lane)
	}
}
