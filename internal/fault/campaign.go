package fault

// Campaign is the parallel fault-coverage engine: the full single-stuck-at
// campaign of a partitioned circuit — every cluster, every (optionally
// collapsed) fault, packed sim.BatchLanes(sim.MaxLaneWords) = 255 lanes
// per wide batch — fanned over a bounded worker pool. The paper's headline
// claim is that each segment with <= l_k inputs is tested exhaustively and
// all segments concurrently; this engine is how the repo verifies that
// claim on whole benchmarks instead of one cluster at a time.
//
// The engine drops faults in two tiers:
//
//   - within a batch, cycling stops as soon as all lanes have diverged
//     from the fault-free lane (no pattern is applied to a fully detected
//     batch);
//   - across batches, a cheap triage stage runs every batch for a small
//     pattern prefix first; the (typically few) surviving faults are then
//     repacked densely into far fewer batches for the full pseudo-
//     exhaustive budget. Detected faults are never re-simulated, and when
//     triage already reaches 100% coverage the escalation stage vanishes —
//     the whole campaign exits early.
//
// Determinism contract: batch composition follows the List order, every
// batch derives its LFSR seeds from (Options.Seed, stage, segment) alone —
// all batches of one segment and stage replay the same session seed
// sequence — and results aggregate in job order. Since lanes are
// independent in the sim kernel and batch-level session cutoff is only
// taken on sets that fit one word-wide batch at every width, a fault's
// verdict does not depend on which batch it was packed into. Reports are
// therefore byte-identical for any Workers value and any packing width,
// which the race-enabled tests pin (they cap the width through the
// unexported maxWords field). Batch counts are the one packing-dependent
// quantity, so renders gate them behind Timing.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// DefaultTriagePatterns is the per-fault pattern budget of the triage
// stage: long enough to detect the easy majority of faults, short enough
// to stay well under the full pseudo-exhaustive budget of typical l_k
// values (2^8-1 patterns x4 sessions at l_k=8), so batches holding a
// hard-to-detect or redundant fault stop cheaply in stage one instead of
// dragging their batch-mates (254 at the default width) through the whole
// budget. Coverage is unaffected: every survivor gets the full budget in
// the escalation stage.
const DefaultTriagePatterns = 128

// CampaignOptions tunes a whole-partition campaign.
type CampaignOptions struct {
	// MaxPatterns caps the per-fault pattern budget; 0 means the full
	// pseudo-exhaustive sequence 2^inputs - 1 (capped at 2^20), times 4
	// for sequential segments, exactly as Options.MaxPatterns.
	MaxPatterns uint64
	// Seed drives every LFSR seed of the campaign.
	Seed int64
	// Workers bounds the batch worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Collapse applies structural fault-equivalence collapsing before
	// simulation; coverage is still reported over the full uncollapsed
	// list (a collapsed fault is detected iff its representative is).
	Collapse bool
	// TriagePatterns is the stage-one per-fault budget; 0 means
	// DefaultTriagePatterns. Budgets at or below the triage budget skip
	// the escalation stage entirely.
	TriagePatterns uint64
	// Progress, when non-nil, is called after every finished batch with
	// the cumulative batch count and the total known so far (the total
	// grows once when the escalation stage is packed). Called concurrently
	// from pool workers; it must be cheap and must not touch the report
	// stream.
	Progress func(done, total int)

	// maxWords caps the batch width below sim.MaxLaneWords (0: no cap),
	// exactly as Options.maxWords.
	maxWords int
}

// SegmentCoverage is one cluster's campaign outcome.
type SegmentCoverage struct {
	Cluster int
	Cells   int
	Inputs  int
	Outputs int
	DFFs    int
	// Simulated counts the representative faults actually simulated
	// (equals Total unless Collapse dropped equivalent faults).
	Simulated int
	Coverage
}

// CampaignReport aggregates a whole-partition campaign.
//
// Workers is configuration, not a counter, so it is not listed.
//
//obs:counters Total Detected Simulated Batches TriageBatches TriageDetected Survivors
type CampaignReport struct {
	// Segments holds the per-cluster outcomes in partition order.
	Segments []SegmentCoverage
	// Total/Detected/Simulated aggregate the whole campaign.
	Total     int
	Detected  int
	Simulated int
	// Batches counts simulated batches across both stages; TriageBatches
	// of them were triage, the rest escalation. Both depend on the packing
	// width (wider batches → fewer of them), so deterministic renders gate
	// them behind the Timing option.
	Batches       int
	TriageBatches int
	// TriageDetected counts the representatives already detected when the
	// triage stage finished; Survivors counts the representatives repacked
	// into escalation batches. Both are deterministic for fixed options
	// (Survivors excludes segments whose full budget fit inside triage).
	TriageDetected int
	Survivors      int
	Workers        int
	Elapsed        time.Duration
	// Latency holds the per-batch wall-time histograms of the two stages
	// (latency.campaign.batch.triage / .escalation). Like Elapsed it is
	// observability metadata: timing-gated at render time and excluded
	// from every serialized encoding (shard documents keep their byte
	// determinism and DisallowUnknownFields round-trip).
	Latency *obs.HistogramSet `json:"-"`
}

// Ratio returns the aggregate detected/total (1.0 when empty).
func (r *CampaignReport) Ratio() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.Total)
}

// campaignSegment is one cluster's compiled simulation unit.
type campaignSegment struct {
	cluster *partition.Cluster
	sg      *sim.Segment
	faults  []sim.Fault // full List order
	reps    []sim.Fault // simulated representatives (== faults unless collapsed)
	repIdx  []int       // fault position -> index into reps (nil when not collapsed)
	budget  uint64      // full per-fault pattern budget
	det     []bool      // per-rep detected flag, filled by the stages
}

// batchJob is one pool work unit: a slice of representatives of one
// segment at one budget. seq is the deterministic global batch index
// (trace labels, error messages); seedSeq keys the session seed stream to
// (stage, segment) so every batch of that pair replays the same seeds
// regardless of packing width; sessions caps the re-seeded session count
// (0 = segment default); words is the batch's vector width (the final
// partial batch re-fits to the narrowest width that holds it); sole marks
// the only batch of its (stage, segment) fault set at every width, which
// is when batch-level session cutoff is width-invariant and allowed.
type batchJob struct {
	seg      int
	reps     []int // indices into campaignSegment.reps
	budget   uint64
	seq      uint64
	seedSeq  uint64
	sessions int
	words    int
	sole     bool
}

// Campaign fault-simulates every cluster of the partition r of circuit c.
// The report is deterministic for fixed options — independent of Workers
// and scheduling — and the error is the first batch error in job order
// (an error wrapping ctx.Err() when the campaign was cancelled).
func Campaign(ctx context.Context, c *netlist.Circuit, r *partition.Result, opt CampaignOptions) (*CampaignReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.Start(ctx, "campaign", "campaign "+c.Name)
	defer sp.End()
	//seedlint:wallclock Elapsed is observability metadata, not part of the deterministic report encoding
	start := time.Now()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	words := batchWords(opt.maxWords)
	triage := opt.TriagePatterns
	if triage == 0 {
		triage = DefaultTriagePatterns
	}

	// Build every segment up front, serially: construction is cheap
	// relative to simulation and a build error should fail the campaign
	// before any cycles are spent.
	segs := make([]*campaignSegment, len(r.Clusters))
	var collapser *Collapser
	if opt.Collapse {
		collapser = NewCollapser(c)
	}
	for i, cl := range r.Clusters {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fault: campaign cancelled during segment build: %w", err)
		}
		inputs := make([]int, 0, len(cl.InputNets))
		//detlint:ordered BuildSegment sorts its inputNets argument before indexing (sim/segment.go)
		for e := range cl.InputNets {
			inputs = append(inputs, e)
		}
		sg, err := sim.BuildSegment(c, r.G, cl.Nodes, inputs)
		if err != nil {
			return nil, fmt.Errorf("fault: cluster %d: %w", cl.ID, err)
		}
		cs := &campaignSegment{
			cluster: cl,
			sg:      sg,
			faults:  List(sg),
			budget:  patternBudget(sg.NumInputs(), sg.NumDFFs(), opt.MaxPatterns),
		}
		cs.reps = cs.faults
		if opt.Collapse {
			cs.reps, cs.repIdx = collapser.CollapseIndexed(sg, cs.faults)
		}
		cs.det = make([]bool, len(cs.reps))
		segs[i] = cs
	}

	// Stage one: triage every representative at the (clamped) triage
	// budget. Segments whose full budget already fits inside the triage
	// budget are final after this stage and run their normal session
	// schedule; true triage batches run a single session — their survivors
	// get the full multi-session treatment on escalation, so this only
	// trims the cost of finding the easy majority.
	maxReps := 0
	for _, cs := range segs {
		if len(cs.reps) > maxReps {
			maxReps = len(cs.reps)
		}
	}
	allIdx := make([]int, maxReps) // shared 0..n-1 identity, sliced per batch
	for i := range allIdx {
		allIdx[i] = i
	}
	var jobs []batchJob
	var seq uint64
	lanes := sim.BatchLanes(words)
	// packSegment slices one segment-stage rep set into wide batches. All
	// batches share the (stage, segment)-keyed seed stream; the final
	// partial batch re-fits to the narrowest width that holds it (pure
	// throughput — verdicts are width-invariant either way); session
	// cutoff is only enabled when the whole set is one batch at every
	// width (<= sim.LanesPerWord reps).
	packSegment := func(si int, reps []int, budget uint64, sessions int, stage uint64) {
		sole := len(reps) <= sim.LanesPerWord
		seedSeq := stage<<32 | uint64(si)
		//ctxlint:nocancel pure in-memory slicing of a rep list into batches; nanoseconds per iteration
		for lo := 0; lo < len(reps); lo += lanes {
			hi := lo + lanes
			if hi > len(reps) {
				hi = len(reps)
			}
			w := words
			if n := hi - lo; n < lanes {
				w = sim.FitLaneWords(n, words)
			}
			jobs = append(jobs, batchJob{seg: si, reps: reps[lo:hi], budget: budget,
				seq: seq, seedSeq: seedSeq, sessions: sessions, words: w, sole: sole})
			seq++
		}
	}
	//ctxlint:nocancel pure in-memory job packing over prebuilt segments; microseconds per iteration
	for si, cs := range segs {
		b := cs.budget
		sess := 0
		if b > triage {
			b = triage
			sess = 1
		}
		packSegment(si, allIdx[:len(cs.reps)], b, sess, 0)
	}
	rep := &CampaignReport{Workers: workers}
	rep.TriageBatches = len(jobs)
	// Progress totals: the triage stage total is known now; the escalation
	// total is appended once its jobs are packed. done is cumulative across
	// both stages.
	var batchesDone atomic.Int64
	tick := func(total int) func() {
		if opt.Progress == nil {
			return nil
		}
		return func() { opt.Progress(int(batchesDone.Add(1)), total) }
	}
	rep.Latency = obs.NewHistogramSet()
	durs := make([]time.Duration, len(jobs))
	if err := runBatchPool(ctx, segs, jobs, workers, lanes, opt, tick(len(jobs)), durs); err != nil {
		return nil, err
	}
	rep.Batches = len(jobs)
	observeBatches(rep.Latency, "latency.campaign.batch.triage", durs)
	for _, cs := range segs {
		for _, d := range cs.det {
			if d {
				rep.TriageDetected++
			}
		}
	}

	// Stage two: repack the survivors of segments that still have budget
	// left and escalate to the full pseudo-exhaustive budget. Dropped
	// (detected) faults are never re-simulated; at 100% triage coverage
	// this stage has no jobs and the campaign exits early.
	jobs = jobs[:0]
	//ctxlint:nocancel pure in-memory survivor repacking; runBatchPool below owns cancellation
	for si, cs := range segs {
		if cs.budget <= triage {
			continue // triage was already the full budget
		}
		var survivors []int
		for ri, d := range cs.det {
			if !d {
				survivors = append(survivors, ri)
			}
		}
		rep.Survivors += len(survivors)
		packSegment(si, survivors, cs.budget, 0, 1)
	}
	if len(jobs) > 0 {
		durs = make([]time.Duration, len(jobs))
		if err := runBatchPool(ctx, segs, jobs, workers, lanes, opt, tick(rep.TriageBatches+len(jobs)), durs); err != nil {
			return nil, err
		}
		rep.Batches += len(jobs)
		observeBatches(rep.Latency, "latency.campaign.batch.escalation", durs)
	}

	// Aggregate in partition order, expanding collapsed classes back to
	// the full fault list.
	//ctxlint:nocancel in-memory aggregation after all simulation is done; the report is owed to the caller
	for _, cs := range segs {
		sc := SegmentCoverage{
			Cluster:   cs.cluster.ID,
			Cells:     len(cs.cluster.Nodes),
			Inputs:    cs.sg.NumInputs(),
			Outputs:   cs.sg.NumOutputs(),
			DFFs:      cs.sg.NumDFFs(),
			Simulated: len(cs.reps),
		}
		sc.Total = len(cs.faults)
		sc.Patterns = cs.budget
		for fi, f := range cs.faults {
			ri := fi // uncollapsed: faults == reps positionally
			if cs.repIdx != nil {
				ri = cs.repIdx[fi]
			}
			if cs.det[ri] {
				sc.Detected++
			} else {
				sc.Undetected = append(sc.Undetected, f)
			}
		}
		rep.Segments = append(rep.Segments, sc)
		rep.Total += sc.Total
		rep.Detected += sc.Detected
		rep.Simulated += sc.Simulated
	}
	//seedlint:wallclock Elapsed is observability metadata, not part of the deterministic report encoding
	rep.Elapsed = time.Since(start)
	obs.L(ctx).Info("campaign done", "circuit", c.Name,
		"faults", rep.Total, "detected", rep.Detected,
		"batches", rep.Batches, "elapsed", rep.Elapsed)
	return rep, nil
}

// runBatchPool executes the jobs across the worker pool, marking detected
// representatives in each segment's det slice. Batch outcomes depend only
// on the job itself (segment, rep set, budget, seed stream), so det is
// identical for any worker count; distinct jobs never share det entries,
// making the concurrent writes race-free. The returned error is the first
// failing job's error in job order. lanes is the configured per-batch lane
// capacity (buffer sizing; individual jobs may run narrower). tick, when
// non-nil, is called once per finished (or skipped-by-cancellation) batch.
// durs, when non-nil, receives each simulated batch's wall time at its job
// index — the same per-index discipline as errs, so the concurrent writes
// are race-free and the caller can aggregate in job order after the fact.
func runBatchPool(ctx context.Context, segs []*campaignSegment, jobs []batchJob, workers, lanes int, opt CampaignOptions, tick func(), durs []time.Duration) error {
	if len(jobs) == 0 {
		return nil
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A single-worker pool runs on the caller's schedule in effect;
			// keep its events on the caller's trace lane (e.g. a sweep
			// worker running an embedded campaign). A real pool gets one
			// lane per goroutine.
			wctx := ctx
			if workers > 1 {
				wctx = obs.LaneContext(ctx, fmt.Sprintf("campaign-worker-%d", w))
			}
			traced := obs.Enabled(wctx)
			log := obs.L(wctx)
			batchBuf := make([]sim.Fault, 0, lanes) // per-worker batch assembly buffer
			// One env slot per worker: a segment's jobs are contiguous, so
			// the slot rarely turns over, and each worker keeps at most one
			// segment's scratch live. (A per-segment env map pins
			// workers x segments large arrays for the whole stage, which
			// shows up as GC assist time at high worker counts.)
			var env *batchEnv
			envSeg := -1
			defer func() {
				if env != nil {
					env.release()
				}
			}()
			for i := range idx {
				j := &jobs[i]
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("fault: batch %d not started: %w", j.seq, err)
					if tick != nil {
						tick()
					}
					continue
				}
				cs := segs[j.seg]
				if envSeg != j.seg {
					if env != nil {
						env.release()
					}
					env = newBatchEnv(cs.sg)
					envSeg = j.seg
				}
				batch := batchBuf[:0]
				for _, ri := range j.reps {
					batch = append(batch, cs.reps[ri])
				}
				eng, err := env.engine(j.words)
				if err != nil {
					errs[i] = fmt.Errorf("fault: cluster %d batch %d: %w", cs.cluster.ID, j.seq, err)
					if tick != nil {
						tick()
					}
					continue
				}
				var sp obs.Span
				if traced {
					sp = obs.Start(wctx, "campaign", fmt.Sprintf("batch c%d b%d", cs.cluster.ID, j.seq))
				}
				// Session seeds come from a splitmix64 stream keyed by
				// (campaign seed, stage, segment): deterministic,
				// decorrelated, identical for every batch of the pair — the
				// keystone of lane-width invariance — and far cheaper than
				// seeding a math/rand source per job.
				sm := splitmix64(mixSeed(opt.Seed, j.seedSeq))
				//seedlint:wallclock per-batch latency telemetry, timing-gated at render time like Elapsed
				bt := time.Now()
				err = env.runBatch(ctx, batch, j.budget, j.sessions, sm.next, j.sole)
				if durs != nil {
					//seedlint:wallclock per-batch latency telemetry, timing-gated at render time like Elapsed
					durs[i] = time.Since(bt)
				}
				sp.End()
				if err != nil {
					errs[i] = fmt.Errorf("fault: cluster %d batch %d: %w", cs.cluster.ID, j.seq, err)
					log.Warn("campaign batch failed", "cluster", cs.cluster.ID, "batch", j.seq, "err", err)
					if tick != nil {
						tick()
					}
					continue
				}
				for k, ri := range j.reps {
					if eng.Detected(k + 1) {
						cs.det[ri] = true
					}
				}
				if tick != nil {
					tick()
				}
			}
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeBatches fills every simulated batch's wall time into the named
// histogram, in job order. Zero durations are skipped: they mark batches
// that never ran (cancelled before start).
func observeBatches(hs *obs.HistogramSet, name string, durs []time.Duration) {
	for _, d := range durs {
		if d > 0 {
			hs.Observe(name, d)
		}
	}
}

// mixSeed derives a seed-stream origin from the campaign seed and the
// deterministic (stage, segment) stream key (splitmix64 finalizer), so
// streams are decorrelated yet independent of scheduling and packing.
func mixSeed(seed int64, seq uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(seq+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// splitmix64 is the per-(stage, segment) session-seed stream: the standard
// splitmix64
// generator, good enough for LFSR seed choice and three orders of
// magnitude cheaper to construct than a math/rand source.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
