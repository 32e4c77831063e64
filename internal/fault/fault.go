// Package fault provides single stuck-at fault enumeration and parallel
// fault simulation over circuit segments, used to validate the PPET claim
// of high fault coverage under pseudo-exhaustive per-segment testing.
//
// Two entry points share one wide-lane batch kernel (sim.LaneEngine, up to
// sim.BatchLanes(sim.MaxLaneWords) fault lanes per batch):
// Simulate runs a single segment serially (the historical API), and
// Campaign fans every segment of a partition across a bounded worker pool
// with fault dropping and deterministic aggregation (campaign.go).
//
// Lane-width invariance: per-fault verdicts depend only on the fault and
// the pattern sequences applied, never on which batch the fault landed in.
// Both entry points key their LFSR session seeds to width-invariant
// state (Simulate: the session index; Campaign: (seed, stage, segment)),
// and batch-level session cutoff is only taken when the whole fault set
// fits one word-wide batch at every width — so Detected/Undetected results
// do not depend on how faults are packed. The width is the engine's own
// choice: full batches run at sim.MaxLaneWords and a partial final batch
// at the narrowest width that holds it.
package fault

import (
	"context"
	"math/rand"
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
	Patterns uint64 // patterns applied per batch
	Batches  int
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

// Options tunes the campaign.
type Options struct {
	// MaxPatterns caps applied patterns; 0 means the full pseudo-exhaustive
	// sequence 2^inputs - 1 (capped at 2^20 for tractability).
	MaxPatterns uint64
	// Seed drives the LFSR initial state choice.
	Seed int64

	// maxWords caps the batch width below sim.MaxLaneWords (0: no cap).
	// Only this package's width-invariance tests set it.
	maxWords int
}

// batchWords returns the width of a full batch: sim.MaxLaneWords unless a
// test capped it through the unexported maxWords option field.
func batchWords(maxWords int) int {
	if maxWords == 0 {
		return sim.MaxLaneWords
	}
	return maxWords
}

// maxBatchSessions is the session count of a full (non-triage) batch on a
// sequential segment; see runBatch.
const maxBatchSessions = 4

// Simulate runs parallel fault simulation: the segment's external inputs
// are driven by a maximal-length LFSR exactly as the preceding CBIT in TPG
// mode would, and a fault counts as detected when any boundary output
// differs from the fault-free machine on any cycle (the succeeding CBIT in
// PSA mode would absorb the difference into its signature). Faults are
// packed sim.BatchLanes(sim.MaxLaneWords) per batch (lane 0 is
// fault-free), with the final partial batch re-fit to the narrowest width
// that holds it.
//
// Every batch applies the same session seed sequence (drawn once from
// Seed), so per-fault verdicts do not depend on the packing width.
func Simulate(sg *sim.Segment, faults []sim.Fault, opt Options) (Coverage, error) {
	cov := Coverage{Total: len(faults)}
	words := batchWords(opt.maxWords)
	patterns := patternBudget(sg.NumInputs(), sg.NumDFFs(), opt.MaxPatterns)
	cov.Patterns = patterns

	// One seed per session index, shared by every batch: verdicts stay
	// invariant under repacking at a different width.
	rng := rand.New(rand.NewSource(opt.Seed))
	var seeds [maxBatchSessions]uint64
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	// Session cutoff is a batch-level decision; it is width-invariant only
	// when the whole list is one batch at every width.
	sole := len(faults) <= sim.LanesPerWord
	env := newBatchEnv(sg)
	defer env.release()
	lanes := sim.BatchLanes(words)
	for start := 0; start < len(faults); start += lanes {
		end := start + lanes
		if end > len(faults) {
			end = len(faults)
		}
		batch := faults[start:end]
		w := words
		if len(batch) < lanes {
			w = sim.FitLaneWords(len(batch), words)
		}
		eng, err := env.engine(w)
		if err != nil {
			return cov, err
		}
		cov.Batches++
		next := sessionSeeds(seeds)
		if err := env.runBatch(context.Background(), batch, patterns, 0, next, sole); err != nil {
			return cov, err
		}
		for i, f := range batch {
			if eng.Detected(i + 1) {
				cov.Detected++
			} else {
				cov.Undetected = append(cov.Undetected, f)
			}
		}
	}
	return cov, nil
}

// sessionSeeds returns a nextSeed func replaying the fixed per-session
// seed table from the top.
func sessionSeeds(seeds [maxBatchSessions]uint64) func() uint64 {
	i := 0
	return func() uint64 {
		s := seeds[i%len(seeds)]
		i++
		return s
	}
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

// runBatch simulates one batch of up to engine-capacity faults (lane 0
// fault-free, lane i+1 carrying batch[i]) for up to `budget` patterns per
// fault; per-lane verdicts are read back through eng.Detected. Sequential
// segments run 4 scan-re-initialised sessions (fresh LFSR seed from
// nextSeed, cleared state) splitting the budget; a single maximal-length
// orbit correlates pattern order with state and can systematically miss
// state-dependent faults. maxSessions > 0 caps that session count (the
// campaign's triage stage runs one session — its survivors get the full
// treatment on escalation). The batch stops cycling as soon as every lane
// has diverged from lane 0 (fault dropping), and returns ctx.Err()
// promptly when cancelled.
//
// soleBatch marks a batch known to be the only one of its fault set at
// every lane width (the set fits sim.LanesPerWord lanes). Only then may a
// no-progress session end the batch early: the cutoff is a batch-level
// decision, and taking it on multi-batch sets would make verdicts depend
// on how faults were packed — i.e. on the width.
func (e *batchEnv) runBatch(ctx context.Context, batch []sim.Fault, budget uint64, maxSessions int, nextSeed func() uint64, soleBatch bool) error {
	sg := e.sg
	eng := e.eng
	eng.ClearFaults()
	for i, f := range batch {
		if err := eng.Inject(f, i+1); err != nil {
			return err
		}
	}
	eng.Arm(len(batch))
	width := sg.NumInputs()
	if width < cbit.MinWidth {
		width = cbit.MinWidth
	}
	if width > cbit.MaxWidth {
		width = cbit.MaxWidth
	}
	sessions := 1
	if sg.NumDFFs() > 0 {
		sessions = maxBatchSessions
	}
	if maxSessions > 0 && sessions > maxSessions {
		sessions = maxSessions
	}
	perSession := budget / uint64(sessions)
	if perSession == 0 {
		perSession = 1
	}
	for s := 0; s < sessions && !eng.AllDetected(); s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		atSessionStart := eng.DetectedMask()
		tpg, err := cbit.New(width)
		if err != nil {
			return err
		}
		seed := nextSeed()
		if seed&tpgMask(width) == 0 {
			seed = 1
		}
		if err := tpg.SetState(seed); err != nil {
			return err
		}
		eng.ResetState()
		for p := uint64(0); p < perSession; p++ {
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
