// Package fault provides single stuck-at fault enumeration and parallel
// fault simulation over circuit segments, used to validate the PPET claim
// of high fault coverage under pseudo-exhaustive per-segment testing.
//
// Campaign is the one way in: it fans every segment of a partition across
// a bounded worker pool with fault dropping and deterministic aggregation
// (campaign.go), on one wide-lane batch kernel (sim.LaneEngine) and one
// packing rule (pack). A batch is fault-parallel — up to
// sim.BatchLanes(sim.MaxLaneWords) = 255 faults, every session run one
// after another — or, for a sequential segment's fault set too large for
// the session cutoff, in the session layout: up to sim.LanesPerWord = 63
// faults, each of the four sessions in its own word, all at once.
// NewCollapser and CollapseIndexed expose the structural collapsing the
// campaign applies (collapse.go).
//
// Lane-width invariance: per-fault verdicts depend only on the fault and
// the pattern sequences applied, never on which batch the fault landed in.
// The LFSR session seeds are keyed to width-invariant state (seed, stage,
// segment), and batch-level session cutoff is only taken when the whole
// fault set fits one word-wide batch at every width — so Detected/Undetected
// results do not depend on how faults are packed. The width and layout are
// the engine's own choice: full fault-parallel batches run at
// sim.MaxLaneWords, a partial final batch at the narrowest width that
// holds it, and session-layout batches at one word per session.
package fault

import (
	"context"
	"sort"

	"repro/internal/cbit"
	"repro/internal/sim"
)

// List enumerates the single stuck-at faults of a segment: SA0 and SA1 on
// every signal the segment knows (external inputs, gate outputs, flip-flop
// outputs). This is the uncollapsed output-fault list.
//
// The order is an explicit contract: signals ascend lexicographically and
// SA0 precedes SA1 on each signal. Batch packing, campaign reports, and
// the Undetected lists all inherit this order, which is what makes
// coverage reports byte-identical across runs, worker counts, and lane
// widths.
func List(sg *sim.Segment) []sim.Fault {
	sigs := append([]string(nil), sg.Signals()...)
	sort.Strings(sigs)
	out := make([]sim.Fault, 0, 2*len(sigs))
	for _, s := range sigs {
		out = append(out, sim.Fault{Signal: s, Stuck1: false}, sim.Fault{Signal: s, Stuck1: true})
	}
	return out
}

// Coverage is the result of a fault-simulation campaign.
type Coverage struct {
	Total    int
	Detected int
	Patterns uint64 // per-fault pattern budget
	// Undetected lists surviving faults (possibly redundant or sequentially
	// untestable ones).
	Undetected []sim.Fault
}

// Ratio returns detected/total (1.0 when the list is empty).
func (c Coverage) Ratio() float64 {
	if c.Total == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.Total)
}

// batchWords returns the width of a full batch: sim.MaxLaneWords unless a
// test capped it through the unexported CampaignOptions.maxWords field.
func batchWords(maxWords int) int {
	if maxWords == 0 {
		return sim.MaxLaneWords
	}
	return maxWords
}

// maxBatchSessions is the session count of a full (non-triage) batch on a
// sequential segment; see runBatch.
const maxBatchSessions = 4

// The session layout gives each session one word of the lane vector, so
// the sessions must fit the widest one (the constant underflows uint and
// fails to compile otherwise).
const _ = uint(sim.MaxLaneWords - maxBatchSessions)

// batchSpan is one batch of a packed fault set: faults lo..hi-1 of the
// set, run at words words in the given lane layout.
type batchSpan struct {
	lo, hi, words int
	layout        sim.Layout
}

// pack is the campaign's one packing rule: it slices a set
// of n faults that runs on sched into batches, with the batch width
// capped at maxWords. A set that runs several sessions and has no session
// cutoff (not sole) packs in the session layout when every session gets a
// word: sim.LanesPerWord faults a batch at sched.sessions words, all
// sessions side by side. Sole sets stay fault-parallel: their cutoff
// decides after each session whether to run the next, so their sessions
// run one after another. Every other set packs fault-parallel too.
func pack(n, maxWords int, sched *schedule, sole bool) []batchSpan {
	if sessionLayout(maxWords, sched, sole) {
		var spans []batchSpan
		for lo := 0; lo < n; lo += sim.LanesPerWord {
			spans = append(spans, batchSpan{lo, min(lo+sim.LanesPerWord, n), sched.sessions, sim.Sessions})
		}
		return spans
	}
	return packFaultParallel(n, maxWords)
}

// sessionLayout reports whether pack lays a set on sched out in the
// session layout at maxWords: the set runs several sessions, has no
// session cutoff, and every session gets a word.
func sessionLayout(maxWords int, sched *schedule, sole bool) bool {
	return !sole && sched.sessions > 1 && sched.sessions <= maxWords
}

// packFaultParallel packs n faults fault-parallel: full batches of
// sim.BatchLanes(maxWords) faults, and a partial last batch re-fit to the
// narrowest width that holds it (pure throughput; verdicts are
// width-invariant either way).
func packFaultParallel(n, maxWords int) []batchSpan {
	lanes := sim.BatchLanes(maxWords)
	var spans []batchSpan
	for lo := 0; lo < n; lo += lanes {
		hi := min(lo+lanes, n)
		spans = append(spans, batchSpan{lo, hi, sim.FitLaneWords(hi-lo, maxWords), sim.FaultParallel})
	}
	return spans
}

// batchEnv bundles the per-worker scratch a batch simulation needs: the
// shared immutable segment plus a private LaneEngine. Workers of a
// parallel campaign each hold their own env, so the segment itself is only
// ever read. The engine is swapped through the segment's width-keyed pools
// when consecutive batches run at different widths (a campaign's partial
// final batch re-fits to a narrower width).
type batchEnv struct {
	sg  *sim.Segment
	eng sim.LaneEngine
}

func newBatchEnv(sg *sim.Segment) *batchEnv { return &batchEnv{sg: sg} }

// engine returns the env's LaneEngine at the given width, exchanging the
// held engine through the segment pool when the width changes.
func (e *batchEnv) engine(words int) (sim.LaneEngine, error) {
	if e.eng != nil && e.eng.Words() == words {
		return e.eng, nil
	}
	if e.eng != nil {
		e.sg.PutLaneEngine(e.eng)
		e.eng = nil
	}
	eng, err := e.sg.GetLaneEngine(words)
	if err != nil {
		return nil, err
	}
	e.eng = eng
	return eng, nil
}

// release returns the pooled engine to the segment.
func (e *batchEnv) release() {
	if e.eng != nil {
		e.sg.PutLaneEngine(e.eng)
		e.eng = nil
	}
}

// ctxCheckMask throttles context polling in the pattern loop: the check
// runs every 8192 cycles, bounding cancellation latency without touching
// the hot path measurably.
const ctxCheckMask = 8192 - 1

// schedule is the pattern schedule of one batch set: every batch of a
// campaign's (stage, segment) pair runs it, and so does the escalation
// stage's excitation pre-pass, so the two cannot drift apart. Sequential
// segments run sessions scan-re-initialised LFSR sessions (fresh seed,
// cleared state) splitting the budget; a single maximal-length orbit
// correlates pattern order with state and can systematically miss
// state-dependent faults.
type schedule struct {
	sessions   int      // re-seeded sessions, each from the reset state
	perSession uint64   // clocks per session
	width      int      // TPG width
	seeds      []uint64 // one nonzero LFSR state per session
}

// newSchedule lays a per-fault budget out on sg: maxBatchSessions sessions
// on a sequential segment (capped at maxSessions when that is > 0; the
// campaign's triage stage runs one — its survivors get the full treatment
// on escalation), one otherwise, with seeds drawn from nextSeed in session
// order.
func newSchedule(sg *sim.Segment, budget uint64, maxSessions int, nextSeed func() uint64) *schedule {
	sc := &schedule{sessions: 1, width: min(max(sg.NumInputs(), cbit.MinWidth), cbit.MaxWidth)}
	if sg.NumDFFs() > 0 {
		sc.sessions = maxBatchSessions
	}
	if maxSessions > 0 && sc.sessions > maxSessions {
		sc.sessions = maxSessions
	}
	sc.perSession = max(budget/uint64(sc.sessions), 1)
	sc.seeds = make([]uint64, sc.sessions)
	for i := range sc.seeds {
		seed := nextSeed()
		if seed&tpgMask(sc.width) == 0 {
			seed = 1
		}
		sc.seeds[i] = seed
	}
	return sc
}

// tpg returns session s's pattern generator, loaded with its seed.
func (sc *schedule) tpg(s int) (*cbit.CBIT, error) {
	tpg, err := cbit.New(sc.width)
	if err != nil {
		return nil, err
	}
	if err := tpg.SetState(sc.seeds[s]); err != nil {
		return nil, err
	}
	return tpg, nil
}

// runBatch simulates one batch of up to engine-capacity faults (lane 0
// fault-free, lane i+1 carrying batch[i]) on the schedule in the given
// lane layout; per-lane verdicts are read back through eng.Detected. The
// batch stops cycling as soon as every lane has diverged from lane 0
// (fault dropping), and returns ctx.Err() promptly when cancelled.
//
// In the session layout every session runs at once, session s in word s,
// so a fault is detected iff some session detects it within perSession
// clocks: exactly the verdict of running the sessions one after another
// without a cutoff. The fault-parallel layout runs them one after another.
//
// soleBatch marks a batch known to be the only one of its fault set at
// every lane width (the set fits sim.LanesPerWord lanes). Only then may a
// no-progress session end the batch early: the cutoff is a batch-level
// decision, and taking it on multi-batch sets would make verdicts depend
// on how faults were packed — i.e. on the width.
func (e *batchEnv) runBatch(ctx context.Context, batch []sim.Fault, sched *schedule, layout sim.Layout, soleBatch bool) error {
	eng := e.eng
	eng.SetLayout(layout)
	for i, f := range batch {
		if err := eng.Inject(f, i+1); err != nil {
			return err
		}
	}
	eng.Arm(len(batch))
	if layout == sim.Sessions {
		return runSessions(ctx, eng, sched, nil)
	}
	for s := 0; s < sched.sessions && !eng.AllDetected(); s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		atSessionStart := eng.DetectedMask()
		tpg, err := sched.tpg(s)
		if err != nil {
			return err
		}
		eng.ResetState()
		for p := uint64(0); p < sched.perSession; p++ {
			if p&ctxCheckMask == ctxCheckMask {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if eng.Step(tpg.StepTPG()) {
				break
			}
		}
		// Session-level fault dropping: a full re-seeded session that
		// detects nothing new means the survivors are (near-)redundant for
		// this pattern source; further sessions would replay the same
		// maximal-length orbit from another phase and almost surely find
		// nothing either, so stop instead of burning the remaining budget.
		// Gated to sole batches to keep verdicts lane-width-invariant (see
		// above).
		if soleBatch && eng.DetectedMask() == atSessionStart {
			break
		}
	}
	return nil
}

// runPending runs a session-layout batch whose faults all start pending
// (sim.LaneEngine.Pend): each takes a lane when first excited, once skip
// faults have been passed over, and need is the give-up count. Its
// verdicts are those of the same faults injected at reset, since a
// fault's lane equals the fault-free lane until the fault is first
// excited; eng.PendingLane maps a fault to its lane. spill, when non-nil,
// is called on the clock of the batch's first spill.
func (e *batchEnv) runPending(ctx context.Context, batch []sim.Fault, sched *schedule, need, skip int, spill func()) error {
	e.eng.SetLayout(sim.Sessions)
	if err := e.eng.Pend(batch, need, skip); err != nil {
		return err
	}
	return runSessions(ctx, e.eng, sched, spill)
}

// runSessions runs an armed session-layout batch: every session of sched
// from the reset state, session s's TPG driving word s, for perSession
// clocks or until every armed lane is detected in some word. spill, when
// non-nil, is called once, after the clock on which the engine spilled.
func runSessions(ctx context.Context, eng sim.LaneEngine, sched *schedule, spill func()) error {
	tpgs := make([]*cbit.CBIT, sched.sessions)
	for s := range tpgs {
		tpg, err := sched.tpg(s)
		if err != nil {
			return err
		}
		tpgs[s] = tpg
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pats := make([]uint64, len(tpgs))
	eng.ResetState()
	for p := uint64(0); p < sched.perSession; p++ {
		if p&ctxCheckMask == ctxCheckMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for s, tpg := range tpgs {
			pats[s] = tpg.StepTPG()
		}
		done := eng.StepWords(pats)
		if spill != nil && eng.Spilled() {
			spill()
			spill = nil
		}
		if done {
			break
		}
	}
	return nil
}

// patternBudget chooses the applied cycle count: the pseudo-exhaustive
// sequence 2^inputs - 1, repeated a few times when the segment holds state
// (patterns must pipeline through the internal flip-flops to excite and
// propagate sequential faults). An explicit MaxPatterns overrides the
// default; everything is capped at 2^20 cycles for tractability.
func patternBudget(inputs, dffs int, max uint64) uint64 {
	const cap20 = 1 << 20
	if max != 0 {
		if max > cap20 {
			return cap20
		}
		return max
	}
	var full uint64
	// 63 here guards the uint64 shift below, not lane packing: 2^inputs-1
	// overflows the word at 64 inputs and dwarfs cap20 long before.
	if inputs >= 63 {
		full = cap20
	} else {
		full = uint64(1)<<uint(inputs) - 1
	}
	if full == 0 {
		full = 1
	}
	if dffs > 0 {
		repeat := uint64(4)
		full *= repeat
	}
	if full > cap20 {
		full = cap20
	}
	return full
}

func tpgMask(width int) uint64 {
	return uint64(1)<<uint(width) - 1
}
