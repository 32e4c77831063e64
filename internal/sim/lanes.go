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
// Determinism contract: lanes are independent. Lane L's verdict after a
// given pattern sequence depends only on the fault injected in lane L and
// the sequence itself — never on the batch mates or the vector width — so
// campaign verdicts are byte-identical across widths as long as the
// pattern sequences are keyed to something width-invariant (the campaign
// keys them to (seed, stage, segment); see internal/fault).
//
// A LaneEngine is not safe for concurrent use; concurrent campaigns give
// each worker its own engine via GetLaneEngine.
type LaneEngine interface {
	// Words returns the vector width in 64-bit words.
	Words() int
	// Lanes returns the fault-lane capacity, BatchLanes(Words()).
	Lanes() int
	// ClearFaults removes all injected faults.
	ClearFaults()
	// Inject adds fault f on lane 1..Lanes(); lane 0 is reserved for the
	// fault-free machine. Unknown signals are rejected.
	Inject(f Fault, lane int) error
	// Arm clears the detection accumulator and marks lanes 1..n as the
	// armed set AllDetected tests against; n is clamped to Lanes().
	Arm(n int)
	// ResetState zeroes the sequential state (a scan-style
	// re-initialisation between sessions).
	ResetState()
	// Step applies one clock — drive inputs from pattern bits, settle,
	// accumulate detection from the boundary outputs, latch flip-flops —
	// and reports whether every armed lane has now diverged.
	Step(pattern uint64) bool
	// StepSample applies one clock like Step, without the detection
	// compare, and writes lane's boundary-output bits (0 or 1, in
	// OutputNames order) into out, sampled before the flip-flops latch.
	// lane is 0..Lanes(); out must have NumOutputs entries.
	StepSample(pattern uint64, lane int, out []uint64)
	// Detected reports whether lane has diverged since the last Arm.
	Detected(lane int) bool
	// AllDetected reports whether every armed lane has diverged.
	AllDetected() bool
	// DetectedMask snapshots the detection accumulator, zero-padded to
	// MaxLaneWords words (for width-agnostic progress comparisons).
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
		e.ClearFaults()
		e.ResetState()
		e.Arm(0)
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
// there only. tap, non-nil only during a StepSample, receives lane
// tapLane's boundary outputs.
type laneEngine[W lanevec] struct {
	sgmt           *Segment
	force0, force1 []W
	forced         []int32
	v              []W
	det, want      W
	tap            []uint64
	tapLane        int
}

func newLaneEngine[W lanevec](sg *Segment) *laneEngine[W] {
	n := len(sg.names)
	return &laneEngine[W]{
		sgmt:   sg,
		force0: make([]W, n),
		force1: make([]W, n),
		v:      make([]W, n),
	}
}

func (e *laneEngine[W]) seg() *Segment { return e.sgmt }

func (e *laneEngine[W]) Words() int {
	var w W
	return len(w)
}

func (e *laneEngine[W]) Lanes() int { return BatchLanes(e.Words()) }

func (e *laneEngine[W]) ClearFaults() {
	var z W
	for i := range e.force0 {
		e.force0[i] = z
		e.force1[i] = z
	}
	e.forced = e.forced[:0]
}

func (e *laneEngine[W]) Inject(f Fault, lane int) error {
	if lane < 1 || lane > e.Lanes() {
		return fmt.Errorf("sim: lane %d out of range 1..%d", lane, e.Lanes())
	}
	i, ok := e.sgmt.index[f.Signal]
	if !ok {
		return fmt.Errorf("sim: unknown fault signal %q", f.Signal)
	}
	if f.Stuck1 {
		e.force1[i][lane>>6] |= 1 << uint(lane&63)
	} else {
		e.force0[i][lane>>6] |= 1 << uint(lane&63)
	}
	if op := e.sgmt.opOf[i]; op >= 0 {
		if k, found := slices.BinarySearch(e.forced, op); !found {
			e.forced = slices.Insert(e.forced, k, op)
		}
	}
	return nil
}

func (e *laneEngine[W]) Arm(n int) {
	var z W
	e.det = z
	for lane := 1; lane <= min(n, e.Lanes()); lane++ {
		z[lane>>6] |= 1 << uint(lane&63)
	}
	e.want = z
}

func (e *laneEngine[W]) ResetState() {
	var z W
	for i := range e.v {
		e.v[i] = z
	}
}

func (e *laneEngine[W]) Step(pattern uint64) bool {
	e.cycle(pattern, true)
	return e.det == e.want
}

func (e *laneEngine[W]) StepSample(pattern uint64, lane int, out []uint64) {
	e.tap, e.tapLane = out, lane
	e.cycle(pattern, false)
	e.tap = nil
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

// cycle is one clock of the wide machine: drive inputs (branchless
// broadcast, forced), settle the program with fault injection, sample
// boundary outputs into the detection accumulator (pre-latch), then clock
// the flip-flops through their force masks. It dispatches to the
// hand-unrolled width specializations (wide_unroll.go); the pointer
// receiver makes the any() conversion allocation-free.
func (e *laneEngine[W]) cycle(pattern uint64, detect bool) {
	switch ee := any(e).(type) {
	case *laneEngine[[1]uint64]:
		cycle1(ee, pattern, detect)
	case *laneEngine[[2]uint64]:
		cycle2(ee, pattern, detect)
	case *laneEngine[[4]uint64]:
		cycle4(ee, pattern, detect)
	}
}

func (e *laneEngine[W]) Detected(lane int) bool {
	if lane < 0 || lane > BatchLanes(e.Words()) {
		return false
	}
	return e.det[lane>>6]>>uint(lane&63)&1 != 0
}

func (e *laneEngine[W]) AllDetected() bool { return e.det == e.want }

func (e *laneEngine[W]) DetectedMask() (m [MaxLaneWords]uint64) {
	for j := 0; j < len(e.det); j++ {
		m[j] = e.det[j]
	}
	return m
}
