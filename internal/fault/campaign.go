package fault

// Campaign is the parallel fault-coverage engine: the full single-stuck-at
// campaign of a partitioned circuit — every cluster, every (optionally
// collapsed) fault, packed into wide batches by pack (up to
// sim.BatchLanes(sim.MaxLaneWords) = 255 faults a fault-parallel batch,
// or sim.LanesPerWord = 63 faults under all four sessions of a sequential
// segment at once in the session layout) — fanned over a bounded worker
// pool. The paper's headline claim is that each segment with <= l_k
// inputs is tested exhaustively and all segments concurrently; this
// engine is how the repo verifies that claim on whole benchmarks instead
// of one cluster at a time.
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
//     the whole campaign exits early;
//   - before the repacking, every survivor whose signal never takes its
//     non-stuck value on the escalation schedule is dropped: such a fault
//     can never be detected, and it stays undetected in the report. A set
//     that packs in the session layout finds them in its own batches,
//     where a survivor takes a lane only when first excited; every other
//     set runs an excitation pre-pass of the fault-free segment.
//
// Determinism contract: batch composition follows the List order, every
// batch derives its LFSR seeds from (Options.Seed, stage, segment) alone —
// all batches of one segment and stage replay the same schedule — and
// results aggregate in job order. Pruning drops only faults no batch
// could detect, a fault that takes its lane when first excited runs as it
// would from reset, and the session cutoff is decided on the survivors
// before pruning, so none of it moves a verdict. Since lanes are
// independent in the sim kernel, batch-level session cutoff is only
// taken on sets that fit one word-wide batch at every width, and a set
// without the cutoff detects a fault iff some session does whether its
// sessions run one after another or side by side, a fault's verdict does
// not depend on which batch or layout it was packed into. Reports are
// therefore byte-identical for any Workers value, packing width and
// layout, which the race-enabled tests pin (they cap the width through
// the unexported maxWords field; below four words every set packs
// fault-parallel). Batch counts are the one packing-dependent quantity,
// so renders gate them behind Timing.

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
	// for sequential segments (patternBudget).
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
	// grows once when the escalation stage is packed; the batches of
	// session-layout sets, which run before that, are reported then).
	// Called concurrently from pool workers; it must be cheap and must
	// not touch the report stream.
	Progress func(done, total int)

	// maxWords caps the batch width below sim.MaxLaneWords (0: no cap).
	// Only this package's width-invariance tests set it.
	maxWords int
	// noExcite switches the escalation stage's pruning off: no pre-pass
	// runs, and no batch starts with faults pending. Only this package's
	// exactness tests set it.
	noExcite bool
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
//obs:counters Total Detected Simulated Batches TriageBatches TriageDetected Survivors Unexcited
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
	// triage stage finished; Survivors counts the representatives entering
	// escalation, and Unexcited those of them never excited on the
	// escalation schedule, which escalation does not simulate: the
	// excitation pre-pass proved them so, or no batch of a session-layout
	// set, where every survivor starts pending, gave them a lane. All
	// three are deterministic for fixed options (Survivors excludes
	// segments whose full budget fit inside triage). Unexcited, like the
	// batch counts, follows the packing width: pruning gives up when it
	// could not lower the words a segment's survivors pack into
	// fault-parallel.
	TriageDetected int
	Survivors      int
	Unexcited      int
	Workers        int
	Elapsed        time.Duration
	// Latency holds the per-batch wall-time histograms of the two stages
	// (latency.campaign.batch.triage / .escalation, the batches that start
	// with survivors pending included) and the per-segment wall times of
	// the excitation pre-pass (latency.campaign.excite, filled only for
	// escalated sets that do not pack in the session layout). Like Elapsed
	// it is observability metadata: timing-gated at render time and
	// excluded from every serialized encoding (shard documents keep their
	// byte determinism and DisallowUnknownFields round-trip).
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
// segment on one schedule. seq is the deterministic global batch index
// (trace labels, error messages); sched is the (stage, segment) pair's
// schedule, shared by every batch of the pair regardless of packing width;
// words and layout are the batch's vector width and lane layout, as pack
// chose them; sole marks the only batch of its (stage, segment) fault set
// at every width, which is when batch-level session cutoff is
// width-invariant and allowed. need > 0 marks a batch that starts with
// every rep pending (sim.LaneEngine.Pend, with need as its give-up count
// and skip the reps it passes over).
type batchJob struct {
	seg    int
	reps   []int // indices into campaignSegment.reps
	seq    uint64
	sched  *schedule
	words  int
	layout sim.Layout
	sole   bool
	need   int
	skip   int
}

// escalation is one segment's stage-two input: its triage survivors
// (indices into campaignSegment.reps), the schedule every escalation batch
// and the pre-pass run, and the session-cutoff gate decided before any
// survivor is pruned. A set that packs in the session layout runs chain,
// batches that start with every survivor pending; every other set runs
// the excitation pre-pass and then packs rest, the survivors it kept (all
// of them when no pass runs). unexcited counts the survivors never
// excited.
type escalation struct {
	seg       int
	survivors []int
	sched     *schedule
	sole      bool
	chain     []link
	rest      []int
	unexcited int
}

// link is one batch of a session-layout set's chain. Batch k passes over
// the first k*sim.LanesPerWord survivors excited, which the batches
// before it hold, and takes the next ones excited; those excited after
// its lanes are taken spill to batch k+1. The chain has a batch for every
// sim.LanesPerWord survivors, but batch k runs only once batch k-1 has
// spilled: gate, nil for batch 0, is closed by batch k-1 on its first
// spill, with runs set, or as it ends without one. pc is how the batch
// handed its survivors out and dur its wall time. The last batch that
// runs ends without a spill, so it saw every survivor ever excited: its
// pc.pending is the set's unexcited count.
type link struct {
	job  batchJob
	gate chan struct{}
	runs bool
	pc   pendCount
	dur  time.Duration
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
	segs, err := buildSegments(ctx, c, r, opt)
	if err != nil {
		return nil, err
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
	// packSegment slices one segment-stage rep set into batches by the
	// packing rule (pack). All batches share the (stage, segment)
	// schedule. sole enables session cutoff; callers set it only when the
	// whole set is one batch at every width (<= sim.LanesPerWord reps).
	packSegment := func(si int, reps []int, sched *schedule, sole bool) {
		//ctxlint:nocancel pure in-memory slicing of a rep list into batches; nanoseconds per iteration
		for _, b := range pack(len(reps), words, sched, sole) {
			jobs = append(jobs, batchJob{seg: si, reps: reps[b.lo:b.hi], seq: seq, sched: sched,
				words: b.words, layout: b.layout, sole: sole})
			seq++
		}
	}
	//ctxlint:nocancel pure in-memory job packing over prebuilt segments; microseconds per iteration
	for si, cs := range segs {
		b, sess := cs.budget, 0
		if b > triage {
			b, sess = triage, 1
		}
		sched := newSchedule(cs.sg, b, sess, seedStream(opt.Seed, 0, si))
		packSegment(si, allIdx[:len(cs.reps)], sched, len(cs.reps) <= sim.LanesPerWord)
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
	if err := runBatchPool(ctx, segs, jobs, workers, lanes, tick(len(jobs)), durs); err != nil {
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
	var escs []escalation
	//ctxlint:nocancel pure in-memory survivor collection; the pools below own cancellation
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
		if len(survivors) == 0 {
			continue
		}
		rep.Survivors += len(survivors)
		es := escalation{seg: si, survivors: survivors, rest: survivors,
			sched: newSchedule(cs.sg, cs.budget, 0, seedStream(opt.Seed, 1, si)),
			sole:  len(survivors) <= sim.LanesPerWord}
		if !opt.noExcite && sessionLayout(words, es.sched, es.sole) {
			need := pruneNeed(len(survivors), words)
			es.chain, es.rest = make([]link, (len(survivors)+sim.LanesPerWord-1)/sim.LanesPerWord), nil
			for k := range es.chain {
				es.chain[k].job = batchJob{seg: si, reps: survivors, seq: seq, sched: es.sched, words: es.sched.sessions,
					layout: sim.Sessions, need: need, skip: k * sim.LanesPerWord}
				if k > 0 {
					es.chain[k].gate = make(chan struct{})
				}
				seq++
			}
		}
		escs = append(escs, es)
	}
	// Each set's survivors that no escalation batch could detect are found
	// before the set is packed. A set that packs in the session layout
	// runs its chain, where a survivor takes a lane when first excited and
	// a batch that runs out of lanes starts the next; every other set runs
	// the excitation pre-pass. The pool takes every chain's first batch
	// and every pre-pass before any later batch, so a batch waiting at its
	// gate waits only for one that is already running. sole stays as
	// decided above: a set pruned to one word must not gain the session
	// cutoff, which could end a batch before a fault it would have
	// detected in a later session.
	if !opt.noExcite && len(escs) > 0 {
		type step struct{ esc, k int }
		var steps []step
		//ctxlint:nocancel pure in-memory job ordering, one step per potential batch; runPool below owns cancellation
		for k := 0; ; k++ {
			n := len(steps)
			for i, es := range escs {
				if k < max(len(es.chain), 1) {
					steps = append(steps, step{i, k})
				}
			}
			if len(steps) == n {
				break
			}
		}
		excite := make([]time.Duration, len(escs))
		err := runPool(ctx, len(steps), workers, func(wctx context.Context) (func(int) error, func()) {
			w := newBatchWorker(wctx, segs, lanes)
			return func(n int) error {
				es, cs := &escs[steps[n].esc], segs[escs[steps[n].esc].seg]
				if es.chain != nil {
					return es.runLink(ctx, w, steps[n].k)
				}
				//seedlint:wallclock pre-pass latency telemetry, timing-gated at render time like Elapsed
				bt := time.Now()
				kept, err := cs.excite(ctx, es.survivors, es.sched, pruneNeed(len(es.survivors), words))
				//seedlint:wallclock pre-pass latency telemetry, timing-gated at render time like Elapsed
				excite[steps[n].esc] = time.Since(bt)
				if err != nil {
					return fmt.Errorf("fault: cluster %d pre-pass: %w", cs.cluster.ID, err)
				}
				es.rest, es.unexcited = kept, len(es.survivors)-len(kept)
				return nil
			}, w.release
		})
		if err != nil {
			return nil, err
		}
		observeBatches(rep.Latency, "latency.campaign.excite", excite)
	}
	// A chain batch that handed out a lane counts as an escalation batch;
	// its progress tick waits until the other sets are packed, so the
	// total grows once.
	nChain := 0
	jobs = jobs[:0]
	//ctxlint:nocancel pure in-memory survivor repacking; runBatchPool below owns cancellation
	for _, es := range escs {
		for k, l := range es.chain {
			if k > 0 && !l.runs {
				break
			}
			es.unexcited = l.pc.pending
			if l.pc.took > 0 {
				nChain++
				observeBatches(rep.Latency, "latency.campaign.batch.escalation", []time.Duration{l.dur})
			}
		}
		rep.Unexcited += es.unexcited
		packSegment(es.seg, es.rest, es.sched, es.sole)
	}
	total := rep.TriageBatches + nChain + len(jobs)
	if t := tick(total); t != nil {
		for range nChain {
			t()
		}
	}
	rep.Batches += nChain
	if len(jobs) > 0 {
		durs = make([]time.Duration, len(jobs))
		if err := runBatchPool(ctx, segs, jobs, workers, lanes, tick(total), durs); err != nil {
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

// buildSegments compiles every cluster of r into a campaignSegment: its
// simulation segment, fault list, representatives and full budget.
func buildSegments(ctx context.Context, c *netlist.Circuit, r *partition.Result, opt CampaignOptions) ([]*campaignSegment, error) {
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
	return segs, nil
}

// runBatchPool executes the jobs across the worker pool, marking detected
// representatives in each segment's det slice. Batch outcomes depend only
// on the job itself (segment, rep set, schedule), so det is identical for
// any worker count; distinct jobs never share det entries, making the
// concurrent writes race-free. The returned error is the first failing
// job's error in job order. lanes is the configured per-batch lane
// capacity (buffer sizing; individual jobs may run narrower). tick, when
// non-nil, is called once per finished (or skipped-by-cancellation) batch.
// durs, when non-nil, receives each simulated batch's wall time at its job
// index — the same per-index discipline as the errors, so the concurrent
// writes are race-free and the caller can aggregate in job order after the
// fact.
func runBatchPool(ctx context.Context, segs []*campaignSegment, jobs []batchJob, workers, lanes int, tick func(), durs []time.Duration) error {
	return runPool(ctx, len(jobs), workers, func(wctx context.Context) (func(int) error, func()) {
		w := newBatchWorker(wctx, segs, lanes)
		return func(i int) error {
			if tick != nil {
				defer tick()
			}
			d, _, err := w.run(ctx, &jobs[i], nil)
			if durs != nil {
				durs[i] = d
			}
			return err
		}, w.release
	})
}

// runLink runs batch k of the set's chain once its gate says batch k-1
// spilled, and closes batch k+1's gate on its own first spill or as it
// returns.
func (es *escalation) runLink(ctx context.Context, w *batchWorker, k int) error {
	l := &es.chain[k]
	opened := false
	open := func(runs bool) {
		if !opened && k+1 < len(es.chain) {
			opened = true
			es.chain[k+1].runs = runs
			close(es.chain[k+1].gate)
		}
	}
	defer open(false)
	if l.gate != nil {
		// Batch k-1 closes the gate on every path out of its runLink,
		// and the pool hands it out before this batch.
		<-l.gate
		if !l.runs {
			return nil
		}
	}
	var err error
	l.dur, l.pc, err = w.run(ctx, &l.job, func() { open(true) })
	return err
}

// pendCount is how a batch that starts with its reps pending handed them
// out: took of them got a lane and pending were never due for one.
type pendCount struct{ took, pending int }

// batchWorker is one pool goroutine's batch runner. It holds one env slot:
// a segment's jobs are contiguous, so the slot rarely turns over, and each
// worker keeps at most one segment's scratch live. (A per-segment env map
// pins workers x segments large arrays for the whole stage, which shows up
// as GC assist time at high worker counts.)
type batchWorker struct {
	wctx   context.Context // the goroutine's trace context
	segs   []*campaignSegment
	traced bool
	buf    []sim.Fault // batch assembly buffer
	env    *batchEnv
	envSeg int
}

func newBatchWorker(wctx context.Context, segs []*campaignSegment, lanes int) *batchWorker {
	return &batchWorker{wctx: wctx, segs: segs, traced: obs.Enabled(wctx),
		buf: make([]sim.Fault, 0, lanes), envSeg: -1}
}

// run simulates job j, marks its detected representatives in the
// segment's det slice, and returns the batch's wall time. For a job with
// its reps pending it also returns how they were handed out, calls spill
// on the batch's first spill, and records no trace span when no rep took
// a lane.
func (w *batchWorker) run(ctx context.Context, j *batchJob, spill func()) (time.Duration, pendCount, error) {
	var pc pendCount
	if err := ctx.Err(); err != nil {
		return 0, pc, fmt.Errorf("fault: batch %d not started: %w", j.seq, err)
	}
	cs := w.segs[j.seg]
	if w.envSeg != j.seg {
		w.release()
		w.env = newBatchEnv(cs.sg)
		w.envSeg = j.seg
	}
	batch := w.buf[:0]
	for _, ri := range j.reps {
		batch = append(batch, cs.reps[ri])
	}
	w.buf = batch[:0]
	eng, err := w.env.engine(j.words)
	if err != nil {
		return 0, pc, fmt.Errorf("fault: cluster %d batch %d: %w", cs.cluster.ID, j.seq, err)
	}
	var sp obs.Span
	if w.traced {
		sp = obs.Start(w.wctx, "campaign", fmt.Sprintf("batch c%d b%d", cs.cluster.ID, j.seq))
	}
	//seedlint:wallclock per-batch latency telemetry, timing-gated at render time like Elapsed
	bt := time.Now()
	if j.need > 0 {
		err = w.env.runPending(ctx, batch, j.sched, j.need, j.skip, spill)
	} else {
		err = w.env.runBatch(ctx, batch, j.sched, j.layout, j.sole)
	}
	//seedlint:wallclock per-batch latency telemetry, timing-gated at render time like Elapsed
	d := time.Since(bt)
	if err != nil {
		sp.End()
		obs.L(w.wctx).Warn("campaign batch failed", "cluster", cs.cluster.ID, "batch", j.seq, "err", err)
		return d, pc, fmt.Errorf("fault: cluster %d batch %d: %w", cs.cluster.ID, j.seq, err)
	}
	//ctxlint:nocancel reads back one finished batch's verdicts, a few nanoseconds a rep
	for k, ri := range j.reps {
		lane := k + 1
		if j.need > 0 {
			lane = eng.PendingLane(k)
			switch {
			case lane > 0:
				pc.took++
			case lane == 0:
				pc.pending++
			}
		}
		if lane > 0 && eng.Detected(lane) {
			cs.det[ri] = true
		}
	}
	if j.need == 0 || pc.took > 0 {
		sp.End()
	}
	return d, pc, nil
}

// release returns the worker's pooled engine to its segment.
func (w *batchWorker) release() {
	if w.env != nil {
		w.env.release()
	}
}

// runPool runs jobs 0..n-1 on up to workers goroutines and returns the
// first error in job order. Each goroutine builds its own job runner (and
// the scratch it holds) through newRunner, passing the goroutine's trace
// context; done, when non-nil, runs as the goroutine exits. A
// single-worker pool runs on the caller's schedule in effect, so it keeps
// its events on the caller's trace lane (e.g. a sweep worker running an
// embedded campaign); a real pool gets one lane per goroutine.
func runPool(ctx context.Context, n, workers int, newRunner func(wctx context.Context) (run func(i int) error, done func())) error {
	if n == 0 {
		return nil
	}
	workers = min(workers, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := ctx
			if workers > 1 {
				wctx = obs.LaneContext(ctx, fmt.Sprintf("campaign-worker-%d", w))
			}
			run, done := newRunner(wctx)
			if done != nil {
				defer done()
			}
			for i := range idx {
				errs[i] = run(i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
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

// seedStream returns the session-seed stream of one (stage, segment) pair:
// deterministic, decorrelated, and the same for every batch of the pair —
// the keystone of lane-width invariance — and far cheaper than seeding a
// math/rand source.
func seedStream(seed int64, stage uint64, seg int) func() uint64 {
	sm := splitmix64(mixSeed(seed, stage<<32|uint64(seg)))
	return sm.next
}

// excite runs the excitation pre-pass over survivors (indices into
// cs.reps) on the escalation schedule and returns the survivors it did not
// prove unexcited, in order. It keeps them all, giving up early, when
// fewer than need of them stay unexcited (the campaign passes pruneNeed).
func (cs *campaignSegment) excite(ctx context.Context, survivors []int, sched *schedule, need int) ([]int, error) {
	faults := make([]sim.Fault, len(survivors))
	for k, ri := range survivors {
		faults[k] = cs.reps[ri]
	}
	sources := make([]func() uint64, sched.sessions)
	for s := range sources {
		tpg, err := sched.tpg(s)
		if err != nil {
			return nil, err
		}
		sources[s] = tpg.StepTPG
	}
	pruned, err := cs.sg.Unexcited(ctx, faults, sources, sched.perSession, need)
	if err != nil || len(pruned) == 0 {
		return survivors, err
	}
	kept := make([]int, 0, len(survivors)-len(pruned))
	for k, ri := range survivors {
		if len(pruned) > 0 && pruned[0] == k {
			pruned = pruned[1:]
			continue
		}
		kept = append(kept, ri)
	}
	return kept, nil
}

// pruneNeed returns the fewest of n survivors whose removal lowers the
// words their batches pack into fault-parallel (full batches at words, the
// last re-fit to the narrowest width that holds it), and pruning gives up
// below it: the pre-pass keeps every survivor, and the batches of a set
// whose survivors start pending give each of them a lane. Pruning fewer
// lowers no word; it can still let a batch stop at its all-detected exit,
// but running the pass to the end of the schedule costs more than those
// early exits save (DESIGN §10 has the figures). It measures the
// fault-parallel packing even where escalation packs in the session
// layout, on purpose: the give-up point decides which survivors end up
// Unexcited, so measuring the session layout would change that reported
// count (DESIGN §10).
func pruneNeed(n, words int) int {
	packed := func(n int) int {
		w := 0
		for _, b := range packFaultParallel(n, words) {
			w += b.words
		}
		return w
	}
	full, m := packed(n), n-1
	for m > 0 && packed(m) == full {
		m--
	}
	return n - m
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
