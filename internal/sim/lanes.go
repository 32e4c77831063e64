package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// LaneEngine is a wide-lane fault-simulation machine bound to one Segment:
// injected force masks, sequential state, and the detection accumulator,
// all at a fixed vector width chosen at construction. It is the only
// fault-simulation path: one Step drives the segment's inputs, settles the
// program, folds boundary-output divergence into the detected mask, and
// latches the flip-flops — for 64*Words() lanes at once. The PPET
// self-test runs on a one-word engine and reads one lane's boundary
// outputs each clock through StepSample.
//
// The lanes follow the engine's Layout: fault-parallel (the default; one
// pattern stream, up to 64*Words()-1 faults) or sessions (one pattern
// stream per word, up to LanesPerWord faults each seen in every word).
//
// Determinism contract: lanes are independent. Lane L's verdict after a
// given pattern sequence depends only on the fault injected in lane L and
// the sequence itself — never on the batch mates or the vector width — so
// campaign verdicts are byte-identical across widths as long as the
// pattern sequences are keyed to something width-invariant (the campaign
// keys them to (seed, stage, segment); see internal/fault). In the session
// layout this holds per word: a fault's lane in word s sees exactly what a
// one-word engine would under session s's pattern stream.
//
// A LaneEngine is not safe for concurrent use; concurrent campaigns give
// each worker its own engine via GetLaneEngine.
type LaneEngine interface {
	// Words returns the vector width in 64-bit words.
	Words() int
	// Lanes returns the fault-lane capacity: BatchLanes(Words()) in the
	// fault-parallel layout, LanesPerWord in the session layout.
	Lanes() int
	// SetLayout switches the lane layout. It removes all injected faults
	// and clears the armed set, since both are laid out by the layout.
	SetLayout(l Layout)
	// ClearFaults removes all injected faults.
	ClearFaults()
	// Inject adds fault f on lane 1..Lanes(); lane 0 is reserved for the
	// fault-free machine. In the session layout the fault goes into that
	// lane of every word. Unknown signals are rejected.
	Inject(f Fault, lane int) error
	// Pend removes all injected faults, arms no lane, and queues faults as
	// pending: none has a lane yet. Session layout only. After each
	// clock's settle, and before its latch, every pending fault whose
	// signal reads its non-stuck value on lane 0 of some word is due for
	// a lane, in Pend order; once fewer than need faults are pending, the
	// rest are due at once. The first skip faults due get no lane (earlier
	// batches of the same fault set hold them); the next ones are injected
	// into the next free lane, and the clock is settled again. An empty
	// lane is a fault-free machine, so it already holds the state of a
	// fault that was never excited; a flip-flop-output fault also forces
	// its lane's current Q unless no latch has run since ResetState. The
	// first fault due after every lane is taken spills: it gets no lane,
	// Spilled turns true, and the engine stops tracking the faults still
	// pending. Step and AllDetected report all detected only once no fault
	// is pending. Unknown signals are rejected.
	Pend(faults []Fault, need, skip int) error
	// PendingLane reports where pending fault k (in Pend order) went: its
	// lane 1..Lanes(), -1 when it was due but got no lane (skipped or
	// spilled), or 0 when it was never due while the engine tracked it.
	PendingLane(k int) int
	// Spilled reports whether a pending fault was due after every lane
	// was taken.
	Spilled() bool
	// Arm clears the detection accumulator and marks lanes 1..n as the
	// armed set AllDetected tests against; n is clamped to Lanes().
	Arm(n int)
	// ResetState zeroes the sequential state (a scan-style
	// re-initialisation between sessions).
	ResetState()
	// Step applies one clock — drive inputs from pattern bits, settle,
	// accumulate detection from the boundary outputs, latch flip-flops —
	// and reports whether every armed lane has now diverged. Every word
	// is driven by the same pattern.
	Step(pattern uint64) bool
	// StepWords applies one clock like Step, driving word j from
	// patterns[j]; patterns must have at least Words() entries.
	StepWords(patterns []uint64) bool
	// StepSample applies one clock like Step, without the detection
	// compare, and writes lane's boundary-output bits (0 or 1, in
	// OutputNames order) into out, sampled before the flip-flops latch.
	// lane is 0..Lanes(); out must have NumOutputs entries.
	StepSample(pattern uint64, lane int, out []uint64)
	// Detected reports whether lane has diverged since the last Arm (in
	// the session layout: in some word).
	Detected(lane int) bool
	// AllDetected reports whether every armed lane has diverged.
	AllDetected() bool
	// DetectedMask snapshots the detection accumulator word by word,
	// zero-padded to MaxLaneWords words (for width-agnostic progress
	// comparisons). In the session layout word s holds the lanes session
	// s has detected.
	DetectedMask() [MaxLaneWords]uint64

	// seg seals the interface to this package and keys pool returns.
	seg() *Segment
}

// NewLaneEngine returns a fresh engine for the segment at the given vector
// width (1, 2, or 4 words).
func (sg *Segment) NewLaneEngine(words int) (LaneEngine, error) {
	switch words {
	case 1:
		return newLaneEngine[[1]uint64](sg), nil
	case 2:
		return newLaneEngine[[2]uint64](sg), nil
	case 4:
		return newLaneEngine[[4]uint64](sg), nil
	}
	return nil, fmt.Errorf("sim: lane width %d words not supported (want 1, 2, or 4)", words)
}

// GetLaneEngine returns a cleared engine at the given width, recycling a
// previously Put one when available. Safe for concurrent use.
func (sg *Segment) GetLaneEngine(words int) (LaneEngine, error) {
	if !ValidLaneWords(words) {
		return sg.NewLaneEngine(words) // reports the error
	}
	if v := sg.lanePools[laneWordsIndex(words)].Get(); v != nil {
		e := v.(LaneEngine)
		e.SetLayout(FaultParallel)
		e.ResetState()
		return e, nil
	}
	return sg.NewLaneEngine(words)
}

// PutLaneEngine returns an engine obtained from GetLaneEngine (or
// NewLaneEngine) to the segment's width-keyed pool for reuse. Engines
// bound to another segment are dropped rather than poisoning the pool.
func (sg *Segment) PutLaneEngine(e LaneEngine) {
	if e == nil || e.seg() != sg {
		return
	}
	sg.lanePools[laneWordsIndex(e.Words())].Put(e)
}

// laneWordsIndex maps a valid width {1,2,4} to its pool slot {0,1,2}.
func laneWordsIndex(words int) int { return bits.TrailingZeros(uint(words)) }

// laneEngine is the generic engine behind LaneEngine: the per-signal value
// and force-mask planes are []W so every signal's lanes live in one vector
// word, and the detection accumulator and armed-lane mask are single
// vector words compared by value. forced lists, ascending, the program ops
// whose output carries an injected fault; the settle folds force masks
// there only. next is the latch scratch, one D value per flip-flop. pat
// holds the next clock's per-word input patterns. sessions is the session
// layout: the kernels compare each word with its own lane 0. tap, non-nil
// only during a StepSample, receives lane tapLane's boundary outputs.
// pend holds the faults still waiting for a lane, in Pend order;
// pendLane records each Pend position's lane (see PendingLane), need is
// the give-up count, skip the faults still to pass over, taken the lanes
// handed out so far, and spilled whether a fault found them all taken.
// fresh marks the reset state: no latch since ResetState.
type laneEngine[W lanevec] struct {
	sgmt           *Segment
	force0, force1 []W
	forced         []int32
	v              []W
	next           []W
	det, want      W
	pat            W
	sessions       bool
	tap            []uint64
	tapLane        int
	pend           []pendSite
	pendLane       []int
	need, skip     int
	taken          int
	spilled, fresh bool
}

// pendSite is a pending fault: its signal, its Pend position k, and inv,
// which is 0 for a stuck-at-0 fault, waiting for a 1, and all ones for a
// stuck-at-1 fault, waiting for a 0. The fault is excited once
// v[sig] ^ inv has bit 0 set in some word. Sixteen bytes a fault, since
// every settle scans them all.
type pendSite struct {
	sig, k int32
	inv    uint64
}

func newLaneEngine[W lanevec](sg *Segment) *laneEngine[W] {
	n := len(sg.names)
	return &laneEngine[W]{
		sgmt:   sg,
		force0: make([]W, n),
		force1: make([]W, n),
		v:      make([]W, n),
		next:   make([]W, len(sg.dffs)),
		fresh:  true,
	}
}

func (e *laneEngine[W]) seg() *Segment { return e.sgmt }

func (e *laneEngine[W]) Words() int {
	var w W
	return len(w)
}

func (e *laneEngine[W]) Lanes() int {
	if e.sessions {
		return LanesPerWord
	}
	return BatchLanes(e.Words())
}

func (e *laneEngine[W]) SetLayout(l Layout) {
	e.sessions = l == Sessions
	e.ClearFaults()
	e.Arm(0)
}

func (e *laneEngine[W]) ClearFaults() {
	var z W
	for i := range e.force0 {
		e.force0[i] = z
		e.force1[i] = z
	}
	e.forced = e.forced[:0]
	e.pend, e.pendLane, e.skip, e.taken, e.spilled = e.pend[:0], e.pendLane[:0], 0, 0, false
}

func (e *laneEngine[W]) Inject(f Fault, lane int) error {
	if lane < 1 || lane > e.Lanes() {
		return fmt.Errorf("sim: lane %d out of range 1..%d", lane, e.Lanes())
	}
	i, ok := e.sgmt.index[f.Signal]
	if !ok {
		return fmt.Errorf("sim: unknown fault signal %q", f.Signal)
	}
	e.inject(i, f.Stuck1, lane)
	return nil
}

// inject forces signal i to the stuck value on lane.
func (e *laneEngine[W]) inject(i int, stuck1 bool, lane int) {
	force := e.force0
	if stuck1 {
		force = e.force1
	}
	if e.sessions {
		for j := range len(force[i]) {
			force[i][j] |= 1 << uint(lane)
		}
	} else {
		force[i][lane>>6] |= 1 << uint(lane&63)
	}
	if op := e.sgmt.opOf[i]; op >= 0 {
		if k, found := slices.BinarySearch(e.forced, op); !found {
			e.forced = slices.Insert(e.forced, k, op)
		}
	}
}

func (e *laneEngine[W]) Pend(faults []Fault, need, skip int) error {
	if !e.sessions {
		return fmt.Errorf("sim: pending faults need the session layout")
	}
	e.ClearFaults()
	e.Arm(0)
	for k, f := range faults {
		i, ok := e.sgmt.index[f.Signal]
		if !ok {
			e.ClearFaults()
			return fmt.Errorf("sim: unknown fault signal %q", f.Signal)
		}
		var inv uint64
		if f.Stuck1 {
			inv = ^inv
		}
		e.pend = append(e.pend, pendSite{sig: int32(i), k: int32(k), inv: inv})
		e.pendLane = append(e.pendLane, 0)
	}
	e.need, e.skip = need, skip
	return nil
}

func (e *laneEngine[W]) PendingLane(k int) int { return e.pendLane[k] }

func (e *laneEngine[W]) Spilled() bool { return e.spilled }

// admit runs between a clock's settle and its latch, once a pending
// fault is excited — its signal reads the non-stuck value on lane 0 of
// some word — or fewer than need faults are pending. Every excited
// pending fault is due for a lane and, once fewer than need stay pending,
// all of them are, in Pend order either way; after a spill it stops
// tracking the rest. It reports whether it injected a fault, in which
// case the clock must be settled again.
func (e *laneEngine[W]) admit() bool {
	kept, injected := 0, false
	for _, p := range e.pend {
		x := e.v[p.sig]
		var hit uint64
		for j := range len(x) {
			hit |= x[j] ^ p.inv
		}
		if hit&1 == 0 {
			e.pend[kept] = p
			kept++
			continue
		}
		injected = e.place(p) || injected
	}
	e.pend = e.pend[:kept]
	if e.spilled {
		e.pend = e.pend[:0]
	}
	if len(e.pend) > 0 && len(e.pend) < e.need {
		for _, p := range e.pend {
			injected = e.place(p) || injected
		}
		e.pend = e.pend[:0]
	}
	return injected
}

// place passes over due fault p while skip lasts, spills it once every
// lane is taken, and otherwise gives it the next free lane; it reports
// whether it injected p.
//
// Until a fault is first excited its lane would equal lane 0 at every
// signal (the argument of Unexcited), so an empty lane, which is a
// fault-free machine, holds exactly the state the fault's lane would hold
// had it been injected at reset. The one state a fault sets directly is
// a flip-flop output's Q, which the latch forces; so place forces the
// fault site's current value in the lane too, except in the reset state,
// where a lane injected at reset reads the reset value. (At an input or
// a gate output the next drive and settle force it anyway.)
func (e *laneEngine[W]) place(p pendSite) bool {
	if e.skip > 0 {
		e.skip--
		e.pendLane[p.k] = -1
		return false
	}
	if e.taken == e.Lanes() {
		e.pendLane[p.k] = -1
		e.spilled = true
		return false
	}
	e.taken++
	lane := e.taken
	e.pendLane[p.k] = lane
	e.inject(int(p.sig), p.inv != 0, lane)
	if !e.fresh {
		x, bit := e.v[p.sig], uint64(1)<<uint(lane)
		for j := range len(x) {
			x[j] = x[j]&^bit | p.inv&bit
		}
		e.v[p.sig] = x
	}
	e.want = e.laneMask(lane)
	return true
}

func (e *laneEngine[W]) Arm(n int) {
	var z W
	e.det = z
	e.want = e.laneMask(min(n, e.Lanes()))
}

// laneMask returns the mask of lanes 1..n, in every word in the session
// layout.
func (e *laneEngine[W]) laneMask(n int) W {
	var z W
	for lane := 1; lane <= n; lane++ {
		z[lane>>6] |= 1 << uint(lane&63)
	}
	if e.sessions {
		for j := range len(z) {
			z[j] = z[0]
		}
	}
	return z
}

func (e *laneEngine[W]) ResetState() {
	var z W
	for i := range e.v {
		e.v[i] = z
	}
	e.fresh = true
}

func (e *laneEngine[W]) Step(pattern uint64) bool {
	e.broadcast(pattern)
	e.cycle(true)
	return e.AllDetected()
}

func (e *laneEngine[W]) StepWords(patterns []uint64) bool {
	for j := range len(e.pat) {
		e.pat[j] = patterns[j]
	}
	e.cycle(true)
	return e.AllDetected()
}

func (e *laneEngine[W]) StepSample(pattern uint64, lane int, out []uint64) {
	e.tap, e.tapLane = out, lane
	e.broadcast(pattern)
	e.cycle(false)
	e.tap = nil
}

// broadcast sets every word's input pattern of the next clock to pattern.
func (e *laneEngine[W]) broadcast(pattern uint64) {
	for j := range len(e.pat) {
		e.pat[j] = pattern
	}
}

// sample copies lane tapLane of every boundary output into tap. The cycle
// bodies call it between the settle and the latch, because a boundary net
// sourced by a flip-flop in the segment changes value at the latch.
func (e *laneEngine[W]) sample() {
	word, bit := e.tapLane>>6, uint(e.tapLane&63)
	for i, sig := range e.sgmt.outputs {
		e.tap[i] = e.v[sig][word] >> bit & 1
	}
}

// cycle is one clock of the wide machine: drive inputs from the per-word
// patterns in e.pat (branchless, forced), settle the program with fault
// injection, sample boundary outputs into the detection accumulator
// (pre-latch), then clock the flip-flops through their force masks. It
// dispatches to the hand-unrolled width specializations (wide_unroll.go);
// the pointer receiver makes the any() conversion allocation-free.
//
// With faults pending, admit runs between the settle and the rest of the
// clock, and a clock that injected one is driven and settled again, so
// the new lane's fault acts from this clock's settle on.
func (e *laneEngine[W]) cycle(detect bool) {
	switch ee := any(e).(type) {
	case *laneEngine[[1]uint64]:
		settleClock1(ee)
		if len(ee.pend) > 0 && ee.admit() {
			settleClock1(ee)
		}
		latchClock1(ee, detect)
	case *laneEngine[[2]uint64]:
		settleClock2(ee)
		if len(ee.pend) > 0 && ee.admit() {
			settleClock2(ee)
		}
		latchClock2(ee, detect)
	case *laneEngine[[4]uint64]:
		settleClock4(ee)
		if len(ee.pend) > 0 && (len(ee.pend) < ee.need || excited4(ee.v, ee.pend)) && ee.admit() {
			settleClock4(ee)
		}
		latchClock4(ee, detect)
	}
	e.fresh = false
}

func (e *laneEngine[W]) Detected(lane int) bool {
	if lane < 0 || lane > e.Lanes() {
		return false
	}
	if e.sessions {
		return e.anyWord()>>uint(lane)&1 != 0
	}
	return e.det[lane>>6]>>uint(lane&63)&1 != 0
}

func (e *laneEngine[W]) AllDetected() bool {
	if len(e.pend) > 0 {
		return false
	}
	if e.sessions {
		return e.anyWord() == e.want[0]
	}
	return e.det == e.want
}

// anyWord folds the session layout's per-word detection masks into the
// lanes detected in some word.
func (e *laneEngine[W]) anyWord() uint64 {
	var m uint64
	for j := range len(e.det) {
		m |= e.det[j]
	}
	return m
}

func (e *laneEngine[W]) DetectedMask() (m [MaxLaneWords]uint64) {
	for j := 0; j < len(e.det); j++ {
		m[j] = e.det[j]
	}
	return m
}
