package sim

import (
	"fmt"
	"math/bits"
)

// LaneEngine is a wide-lane fault-simulation machine bound to one Segment:
// injected force masks, sequential state, and the detection accumulator.
// It is the only fault-simulation path: one Step drives the segment's
// inputs, settles the program, folds boundary-output divergence into the
// detected mask, and latches the flip-flops — for every lane at once. The
// PPET self-test runs on a one-word engine and reads one lane's boundary
// outputs each clock through StepSample.
//
// The lanes follow the engine's Layout: fault-parallel (the default; one
// pattern stream, up to 64*Words()-1 faults on a vector of Words() words)
// or sessions (one pattern stream per session, Words() sessions, up to
// LanesPerWord faults each seen in every session). In the session layout
// a lane is logical: each session gets a group of 16, 32 or 64 bits, bit
// 0 of the group is the session's fault-free reference, and a lane that
// holds a fault not yet detected holds one slot of every group. A
// detected lane gives its slot back, and the engine runs on the narrowest
// vector whose groups hold the lanes still live.
//
// Determinism contract: lanes are independent. Lane L's verdict after a
// given pattern sequence depends only on the fault injected in lane L and
// the sequence itself — never on the batch mates, the vector width or the
// slot the lane holds — so campaign verdicts are byte-identical across
// widths as long as the pattern sequences are keyed to something
// width-invariant (the campaign keys them to (seed, stage, segment); see
// internal/fault). In the session layout this holds per session: a fault's
// slot in session s's group sees exactly what a one-word engine would
// under session s's pattern stream, until the lane is detected.
//
// A LaneEngine is not safe for concurrent use; concurrent campaigns give
// each worker its own engine via GetLaneEngine.
type LaneEngine interface {
	// Words returns the width the engine was built at: the vector width
	// in 64-bit words in the fault-parallel layout, and the session count
	// in the session layout, which runs on that many words at most.
	Words() int
	// Lanes returns the fault-lane capacity: BatchLanes(Words()) in the
	// fault-parallel layout, LanesPerWord in the session layout.
	Lanes() int
	// SetLayout switches the lane layout. It removes all injected faults,
	// clears the armed set, and resets the state, since all three are
	// laid out by the layout.
	SetLayout(l Layout)
	// ClearFaults removes all injected faults. In the session layout every
	// lane becomes a copy of its session's fault-free machine again, and
	// the groups narrow at the end of the next clock.
	ClearFaults()
	// Inject adds fault f on lane 1..Lanes(); lane 0 is reserved for the
	// fault-free machine. In the session layout the fault goes into the
	// lane's slot of every session group. Unknown signals are rejected.
	Inject(f Fault, lane int) error
	// Pend removes all injected faults, arms no lane, and queues faults as
	// pending: none has a lane yet. Session layout only. After each
	// clock's settle, and before its latch, every pending fault whose
	// signal reads its non-stuck value on the reference bit of some
	// session group is due for a lane, in Pend order; once fewer than
	// need faults are pending, the rest are due at once. The first skip
	// faults due get no lane (earlier batches of the same fault set hold
	// them); the next ones are injected into the next free lane, and the
	// clock is settled again. A free slot is a fault-free machine, so it
	// already holds the state of a fault that was never excited; a
	// flip-flop-output fault also forces its slot's current Q unless no
	// latch has run since ResetState. The first fault due after every
	// lane is taken spills: it gets no lane, Spilled turns true, and the
	// engine stops tracking the faults still pending. Step and
	// AllDetected report all detected only once no fault is pending.
	// Unknown signals are rejected.
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
	// (every session) is driven by the same pattern.
	Step(pattern uint64) bool
	// StepWords applies one clock like Step, driving word j (session j in
	// the session layout) from patterns[j]; patterns must have at least
	// Words() entries.
	StepWords(patterns []uint64) bool
	// StepSample applies one clock like Step, without the detection
	// compare, and writes lane's boundary-output bits (0 or 1, in
	// OutputNames order) into out, sampled before the flip-flops latch.
	// lane is 0..Lanes(); in the session layout it is read in session 0.
	// out must have NumOutputs entries.
	StepSample(pattern uint64, lane int, out []uint64)
	// Detected reports whether lane has diverged since the last Arm (in
	// the session layout: in some session).
	Detected(lane int) bool
	// AllDetected reports whether every armed lane has diverged.
	AllDetected() bool
	// DetectedMask snapshots the detection accumulator word by word,
	// zero-padded to MaxLaneWords words (for width-agnostic progress
	// comparisons). In the session layout word s holds the lanes session
	// s detected; a lane gives its slot back on the clock it is first
	// detected, so only the sessions that detected it on that clock
	// count it.
	DetectedMask() [MaxLaneWords]uint64

	// seg seals the interface to this package and keys pool returns.
	seg() *Segment
}

// NewLaneEngine returns a fresh engine for the segment at the given vector
// width (1, 2, or 4 words).
func (sg *Segment) NewLaneEngine(words int) (LaneEngine, error) {
	if !ValidLaneWords(words) {
		return nil, fmt.Errorf("sim: lane width %d words not supported (want 1, 2, or 4)", words)
	}
	return newLaneEngine(sg, words), nil
}

// GetLaneEngine returns a cleared engine at the given width, recycling a
// previously Put one when available. Safe for concurrent use.
func (sg *Segment) GetLaneEngine(words int) (LaneEngine, error) {
	if !ValidLaneWords(words) {
		return sg.NewLaneEngine(words) // reports the error
	}
	if v := sg.lanePools[laneWordsIndex(words)].Get(); v != nil {
		e := v.(*engine)
		e.fixed = false
		e.SetLayout(FaultParallel)
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

// engine is the LaneEngine: the lanes callers see, over a physical lane
// vector (machine) it runs each clock on. In the fault-parallel layout a
// lane is bit L of the one vector built at words words. In the session
// layout a lane is logical, and the physical vector is a machine at any
// width up to words whose session groups are group bits wide: slotOf
// maps a lane to the slot it holds in every group (0: none), laneOf
// back, used marks the slots held (bit 0, the reference, always), sites
// lists each lane's faults so its slot can be given back or moved, det
// holds per session the lanes it detected and want the armed lanes. The
// engine keeps only the machine it runs on, at Words()*group/64 words: a
// regroup moves the planes onto a new one, so a narrowed batch does not
// hold on to its wider planes.
//
// pend holds the faults still waiting for a lane, in Pend order (due is
// admit's scratch); pendLane records each Pend position's lane (see
// PendingLane), need is the give-up count, skip the faults still to pass
// over, taken the lanes handed out so far, and spilled whether a fault
// found them all taken. fresh marks the reset state: no latch since
// ResetState. clock counts the clocks, and no narrowing regroup runs
// before holdUntil, which each widening sets hold clocks ahead before
// doubling hold. pat holds the next clock's
// per-session (fault-parallel: per-word) patterns, and tap, non-nil only
// during a StepSample, receives lane tapLane's boundary outputs. fixed,
// set only by tests, keeps the groups 64 bits wide and detected lanes in
// their slots: the engine the elastic one is checked against.
type engine struct {
	sgmt     *Segment
	words    int
	sessions bool
	fixed    bool
	m        machine
	group    uint
	pat      [MaxLaneWords]uint64
	tap      []uint64
	tapLane  int

	slotOf [LanesPerWord + 1]uint8
	laneOf [64]uint8
	used   uint64
	sites  [LanesPerWord + 1][]site
	det    [MaxLaneWords]uint64
	want   uint64

	pend, due        []pendSite
	pendLane         []int
	need, skip       int
	taken            int
	spilled, fresh   bool
	clock, holdUntil int
	hold             int
}

// site is one fault of a session-layout lane.
type site struct {
	sig    int32
	stuck1 bool
}

// pendSite is a pending fault: its signal, its Pend position k, and inv,
// which is 0 for a stuck-at-0 fault, waiting for a 1, and all ones for a
// stuck-at-1 fault, waiting for a 0. The fault is excited once
// v[sig] ^ inv has a reference bit set. Sixteen bytes a fault, since
// every settle scans them all.
type pendSite struct {
	sig, k int32
	inv    uint64
}

// initialHold is the clocks a batch stays at a width it widened to before
// it may narrow again; each widening doubles it, so a batch whose live
// lanes hover at a group boundary regroups a logarithmic number of times.
const initialHold = 16

func newLaneEngine(sg *Segment, words int) *engine {
	e := &engine{sgmt: sg, words: words}
	e.SetLayout(FaultParallel)
	return e
}

// newMachine returns a machine for sg at words words.
func newMachine(sg *Segment, words int) machine {
	switch words {
	case 1:
		return newBank[[1]uint64](sg)
	case 2:
		return newBank[[2]uint64](sg)
	}
	return newBank[[4]uint64](sg)
}

func (e *engine) seg() *Segment { return e.sgmt }

func (e *engine) Words() int { return e.words }

func (e *engine) Lanes() int {
	if e.sessions {
		return LanesPerWord
	}
	return BatchLanes(e.words)
}

// floor is the narrowest session group the engine may run: 64/Words()
// bits, so that the groups fill one word, or 64 in the fixed test mode.
func (e *engine) floor() uint {
	if e.fixed {
		return 64
	}
	return uint(64 / e.words)
}

func (e *engine) SetLayout(l Layout) {
	e.sessions = l == Sessions
	e.pat = [MaxLaneWords]uint64{}
	if e.m == nil || e.group != 64 {
		e.m = newMachine(e.sgmt, e.words)
	}
	e.group = 64
	e.m.shape(!e.sessions, 64)
	e.ClearFaults()
	e.Arm(0)
	e.ResetState()
}

func (e *engine) ClearFaults() {
	e.m.clearForces()
	if e.sessions {
		e.m.refill()
		e.slotOf, e.laneOf, e.used = [LanesPerWord + 1]uint8{}, [64]uint8{}, 1
		for l := range e.sites {
			e.sites[l] = e.sites[l][:0]
		}
		e.hold, e.holdUntil = initialHold, e.clock
	}
	e.pend, e.pendLane, e.skip, e.taken, e.spilled = e.pend[:0], e.pendLane[:0], 0, 0, false
}

func (e *engine) Inject(f Fault, lane int) error {
	if lane < 1 || lane > e.Lanes() {
		return fmt.Errorf("sim: lane %d out of range 1..%d", lane, e.Lanes())
	}
	i, ok := e.sgmt.index[f.Signal]
	if !ok {
		return fmt.Errorf("sim: unknown fault signal %q", f.Signal)
	}
	if !e.sessions {
		e.m.force(i, f.Stuck1, lane, true)
		return nil
	}
	if e.slotOf[lane] == 0 {
		e.fit(e.live() + 1)
		e.takeSlot(lane)
	}
	e.sites[lane] = append(e.sites[lane], site{int32(i), f.Stuck1})
	e.m.force(i, f.Stuck1, int(e.slotOf[lane]), true)
	e.syncWant()
	return nil
}

// live counts the lanes holding a slot.
func (e *engine) live() int { return bits.OnesCount64(e.used) - 1 }

// takeSlot gives lane the lowest free slot; the caller has made room.
func (e *engine) takeSlot(lane int) {
	slot := bits.TrailingZeros64(^e.used & groupMask(e.group))
	e.used |= 1 << uint(slot)
	e.slotOf[lane], e.laneOf[slot] = uint8(slot), uint8(lane)
}

// release gives a detected lane's slot back: its force bits are cleared
// and its flip-flops copy the reference's, so the slot is a fault-free
// machine again. Its other signals still hold this clock's values until
// the next settle recomputes them from the inputs and the flip-flops,
// before anything reads the slot.
func (e *engine) release(lane int) {
	slot := int(e.slotOf[lane])
	for _, s := range e.sites[lane] {
		e.m.force(int(s.sig), s.stuck1, slot, false)
	}
	e.sites[lane] = e.sites[lane][:0]
	e.m.copySlot(0, slot, false)
	e.used &^= 1 << uint(slot)
	e.slotOf[lane], e.laneOf[slot] = 0, 0
}

// fit widens the session groups until n live lanes fit.
func (e *engine) fit(n int) {
	g := e.group
	for int(g)-1 < n {
		g *= 2
	}
	if g == e.group {
		return
	}
	e.regroup(g)
	e.holdUntil = e.clock + e.hold
	e.hold = min(2*e.hold, 1<<30)
}

// regroup moves the session layout onto groups of g bits, on the machine
// at Words()*g/64 words. Narrowing first moves every live slot at or
// above g into a free slot below it; every signal's value and force bits
// then move group by group, and widening fills each group's new slots
// from its reference bit, so they are fault-free machines.
func (e *engine) regroup(g uint) {
	if g == e.group {
		return
	}
	if g < e.group {
		for high := e.used &^ groupMask(g); high != 0; high &= high - 1 {
			from := bits.TrailingZeros64(high)
			to := bits.TrailingZeros64(^e.used & groupMask(g))
			lane := int(e.laneOf[from])
			e.m.copySlot(from, to, true)
			for _, s := range e.sites[lane] {
				e.m.force(int(s.sig), s.stuck1, from, false)
				e.m.force(int(s.sig), s.stuck1, to, true)
			}
			e.used = e.used&^(1<<uint(from)) | 1<<uint(to)
			e.slotOf[lane], e.laneOf[from], e.laneOf[to] = uint8(to), 0, uint8(lane)
		}
	}
	dst := newMachine(e.sgmt, e.words*int(g)/64)
	dst.shape(false, g)
	e.m.regroupTo(dst, e.words)
	e.m, e.group = dst, g
	e.syncWant()
}

// syncWant sets the machine's armed slots from the logical lanes: in
// group s, the slot of every armed lane that holds one and that session
// s has not detected. It clears the machine's detection bits too, so the
// next latch reports only new detections.
func (e *engine) syncWant() {
	var w [MaxLaneWords]uint64
	for s := range e.words {
		var m uint64
		for want := e.want &^ e.det[s]; want != 0; want &= want - 1 {
			m |= 1 << e.slotOf[bits.TrailingZeros64(want)]
		}
		off := s * int(e.group)
		w[off>>6] |= m &^ 1 << uint(off&63)
	}
	e.m.setMasks([MaxLaneWords]uint64{}, w)
}

// collect runs after each session-layout latch. It records every lane a
// session group detected on this clock in that session's det, gives the
// detected lanes' slots back, and narrows the groups once the live lanes
// fit half of them and the hold has passed.
func (e *engine) collect() {
	e.clock++
	if det, _ := e.m.masks(); det != [MaxLaneWords]uint64{} {
		var newly uint64
		for s := range e.words {
			off := s * int(e.group)
			for slots := det[off>>6] >> uint(off&63) & groupMask(e.group); slots != 0; slots &= slots - 1 {
				lane := e.laneOf[bits.TrailingZeros64(slots)]
				e.det[s] |= 1 << lane
				newly |= 1 << lane
			}
		}
		if !e.fixed {
			for ; newly != 0; newly &= newly - 1 {
				e.release(bits.TrailingZeros64(newly))
			}
		}
		e.syncWant()
	}
	if e.group > e.floor() && e.clock >= e.holdUntil {
		g := e.group
		for g/2 >= e.floor() && e.live() < int(g/2) {
			g /= 2
		}
		e.regroup(g)
	}
}

// groupMask has the low g bits set.
func groupMask(g uint) uint64 { return ^uint64(0) >> (64 - g) }

func (e *engine) Pend(faults []Fault, need, skip int) error {
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

func (e *engine) PendingLane(k int) int { return e.pendLane[k] }

func (e *engine) Spilled() bool { return e.spilled }

// admit runs between a clock's settle and its latch, once a pending
// fault is excited — its signal reads the non-stuck value on the
// reference bit of some session group — or fewer than need faults are
// pending. Every excited pending fault is due for a lane and, unless
// those already spill, so is every other one once fewer than need stay
// pending, in Pend order either way; after a spill it stops tracking the
// rest. It widens the groups first when the lanes due do not fit the
// free slots. It reports whether it injected a fault, in which case the
// clock must be settled again.
func (e *engine) admit() bool {
	due, kept := e.due[:0], 0
	for _, p := range e.pend {
		if e.m.due(p) {
			due = append(due, p)
		} else {
			e.pend[kept] = p
			kept++
		}
	}
	e.pend = e.pend[:kept]
	free := LanesPerWord - e.taken
	if len(due)-e.skip <= free && kept > 0 && kept < e.need {
		due = append(due, e.pend...)
		e.pend = e.pend[:0]
	}
	e.fit(e.live() + min(max(len(due)-e.skip, 0), free))
	injected := false
	for _, p := range due {
		injected = e.place(p) || injected
	}
	if e.spilled {
		e.pend = e.pend[:0]
	}
	e.due = due[:0]
	return injected
}

// place passes over due fault p while skip lasts, spills it once every
// lane is taken, and otherwise gives it the next lane and that lane a
// free slot; it reports whether it injected p.
//
// Until a fault is first excited its lane would equal the reference at
// every signal (the argument of Unexcited), so a free slot, which is a
// fault-free machine, holds exactly the state the fault's lane would hold
// had it been injected at reset. The one state a fault sets directly is
// a flip-flop output's Q, which the latch forces; so place forces the
// fault site's current value in the slot too, except in the reset state,
// where a lane injected at reset reads the reset value. (At an input or
// a gate output the next drive and settle force it anyway.)
func (e *engine) place(p pendSite) bool {
	if e.skip > 0 {
		e.skip--
		e.pendLane[p.k] = -1
		return false
	}
	if e.taken == LanesPerWord {
		e.pendLane[p.k] = -1
		e.spilled = true
		return false
	}
	e.taken++
	lane := e.taken
	e.pendLane[p.k] = lane
	e.takeSlot(lane)
	slot, stuck1 := int(e.slotOf[lane]), p.inv != 0
	e.sites[lane] = append(e.sites[lane], site{p.sig, stuck1})
	e.m.force(int(p.sig), stuck1, slot, true)
	if !e.fresh {
		e.m.pin(int(p.sig), stuck1, slot)
	}
	e.want = laneBits(lane)
	e.syncWant()
	return true
}

func (e *engine) Arm(n int) {
	if e.sessions {
		e.det, e.want = [MaxLaneWords]uint64{}, laneBits(min(n, LanesPerWord))
		e.syncWant()
		return
	}
	var want [MaxLaneWords]uint64
	for lane := 1; lane <= min(n, e.Lanes()); lane++ {
		want[lane>>6] |= 1 << uint(lane&63)
	}
	e.m.setMasks([MaxLaneWords]uint64{}, want)
}

// laneBits returns the mask of lanes 1..n of one word, n <= 63.
func laneBits(n int) uint64 { return ^uint64(0) >> uint(63-n) &^ 1 }

func (e *engine) ResetState() {
	e.m.zero()
	e.fresh = true
}

func (e *engine) Step(pattern uint64) bool {
	e.broadcast(pattern)
	e.cycle(true)
	return e.AllDetected()
}

func (e *engine) StepWords(patterns []uint64) bool {
	copy(e.pat[:e.words], patterns)
	e.cycle(true)
	return e.AllDetected()
}

func (e *engine) StepSample(pattern uint64, lane int, out []uint64) {
	e.tap, e.tapLane = out, lane
	e.broadcast(pattern)
	e.cycle(false)
	e.tap = nil
}

// broadcast sets every word's (every session's) input pattern of the next
// clock to pattern.
func (e *engine) broadcast(pattern uint64) {
	for j := range e.words {
		e.pat[j] = pattern
	}
}

// cycle is one clock: drive inputs from the patterns in e.pat and settle,
// sample boundary outputs into the detection accumulator (pre-latch),
// then clock the flip-flops (see machine). With faults pending, admit
// runs between the settle and the rest of the clock, and a clock that
// injected one is driven and settled again, on the machine admit may have
// widened to, so the new lane's fault acts from this clock's settle on.
func (e *engine) cycle(detect bool) {
	e.m.settle(&e.pat)
	if len(e.pend) > 0 && (len(e.pend) < e.need || e.m.excited(e.pend)) && e.admit() {
		e.m.settle(&e.pat)
	}
	if e.tap != nil {
		bit := e.tapLane
		if e.sessions {
			bit = int(e.slotOf[bit])
		}
		e.m.sample(e.tap, bit)
	}
	e.m.latch(detect)
	e.fresh = false
	if e.sessions {
		e.collect()
	}
}

func (e *engine) Detected(lane int) bool {
	if lane < 0 || lane > e.Lanes() {
		return false
	}
	if e.sessions {
		return e.anySession()>>uint(lane)&1 != 0
	}
	det, _ := e.m.masks()
	return det[lane>>6]>>uint(lane&63)&1 != 0
}

func (e *engine) AllDetected() bool {
	if len(e.pend) > 0 {
		return false
	}
	if e.sessions {
		return e.want&^e.anySession() == 0
	}
	det, want := e.m.masks()
	return det == want
}

// anySession folds the session layout's per-session detections into the
// lanes detected in some session.
func (e *engine) anySession() uint64 {
	var m uint64
	for _, d := range e.det {
		m |= d
	}
	return m
}

func (e *engine) DetectedMask() [MaxLaneWords]uint64 {
	if e.sessions {
		return e.det
	}
	det, _ := e.m.masks()
	return det
}
