// Package sweep is the batch-compilation engine behind `merced -sweep`: it
// runs N independent (circuit, l_k, beta, seed) Merced compilations across a
// bounded worker pool. The paper's Tables 10-12 are exactly such a batch —
// every benchmark crossed with l_k ∈ {16, 24} — and each job is an
// embarrassingly parallel unit, so the engine's only obligations are the
// boring but load-bearing ones:
//
//   - bounded parallelism (default runtime.NumCPU workers),
//   - context cancellation and deadline propagation into every pipeline
//     phase of every job (via the staged core pipeline's ctx),
//   - per-job panic recovery that downgrades a crashed job to a structured
//     *PanicError instead of killing the sweep,
//   - deterministic results: job i's outcome lands at Report.Jobs[i]
//     regardless of worker count or scheduling; phase artifacts are
//     immutable, so jobs share them without cloning the circuit,
//   - shared-prefix reuse: parse/analyze/saturate are functions of
//     (circuit, seed, flow.Config) only, so jobs differing in l_k/β reuse
//     one cached core.Saturated artifact and branch at partitioning (see
//     cache.go),
//   - aggregated per-phase timing, throughput, and cache statistics.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Job is one compilation unit of a sweep: a circuit reference plus the
// experiment coordinates of the paper's Tables 10-12.
type Job struct {
	// Circuit names a built-in benchmark (s27 or a Table 9 circuit) or a
	// .bench netlist path; see LoadCircuit.
	Circuit string `json:"circuit"`
	// LK is the input-size constraint l_k (paper: 16 and 24).
	LK int `json:"lk"`
	// Beta is the Eq. (6) SCC cut-budget multiplier; 0 means the paper's 50.
	Beta int `json:"beta,omitempty"`
	// Seed drives every stochastic step of the job.
	Seed int64 `json:"seed"`
}

// Options returns the core configuration for the job: the paper defaults
// for the job's l_k and seed, with the job's beta applied.
func (j Job) Options() core.Options {
	beta := j.Beta
	if beta == 0 {
		beta = 50
	}
	opt := core.DefaultOptions(j.LK, j.Seed)
	opt.Beta = beta
	return opt
}

func (j Job) String() string {
	return fmt.Sprintf("%s lk=%d beta=%d seed=%d", j.Circuit, j.LK, j.Beta, j.Seed)
}

// CompileFunc is the per-job compilation hook. Config.Compile overrides it
// for tests (fault injection); the default is core.Compile.
type CompileFunc func(ctx context.Context, c *netlist.Circuit, opt core.Options) (*core.Result, error)

// Config tunes a sweep run. The zero value runs core.Compile with
// runtime.NumCPU() workers, no per-job deadline, and built-in circuit
// loading.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// JobTimeout, when positive, caps each job with a context deadline
	// derived from the sweep context.
	JobTimeout time.Duration
	// Lint turns on the per-job design-rule gates.
	Lint bool
	// Cache, when non-nil, is the caller's artifact cache — the CLI
	// passes its process cache, store-backed under -cache-dir. When nil,
	// Run constructs a private cache bounded by DefaultCacheEntries.
	Cache *Cache
	// Coverage runs a fault-coverage campaign (internal/fault.Campaign)
	// over each successfully compiled job's partition and attaches the
	// report to JobResult.Coverage. Campaigns run single-worker inside the
	// job — the sweep pool is the parallelism — with collapsing on and the
	// job's seed, so coverage results are as deterministic as the
	// compilation itself.
	Coverage bool
	// CoverageMaxPatterns caps the per-fault pattern budget of those
	// campaigns; 0 means the full pseudo-exhaustive budget.
	CoverageMaxPatterns uint64
	// Progress, when non-nil, is called after each job finishes with the
	// number of completed jobs and the total. Calls come concurrently from
	// worker goroutines (done is monotonic but calls may arrive out of
	// order); the callback must be safe for concurrent use and must not
	// write to the report stream.
	Progress func(done, total int)
	// Load resolves Job.Circuit to a netlist; nil means LoadCircuit. The
	// parses of a custom loader stay out of the persistent store (see
	// Cache.Parse).
	Load func(name string) (*netlist.Circuit, error)
	// Compile runs one job; nil means the staged cached pipeline. The hook
	// receives the shared normalized circuit — it must not mutate it.
	Compile CompileFunc
}

// JobResult is the outcome of one job. Exactly one of Err or the summary
// fields is meaningful.
type JobResult struct {
	Job Job
	// Err is the structured failure: a compile error, an error wrapping
	// context.Canceled / context.DeadlineExceeded when the sweep was
	// cancelled, or a *PanicError when the job crashed.
	Err error
	// Clusters and MaxInputs summarise the partition.
	Clusters  int
	MaxInputs int
	// Areas is the Table 10-12 pricing of the job.
	Areas core.AreaReport
	// Elapsed and Phases are the job's wall-clock cost.
	Elapsed time.Duration
	Phases  core.Phases
	// Kernels are the job's hot-kernel work counters (see
	// core.KernelCounters); Report.Metrics aggregates them in job order.
	Kernels core.KernelCounters
	// Coverage is the job's fault-coverage campaign report, present only
	// under Config.Coverage.
	Coverage *fault.CampaignReport
}

// PanicError is a recovered per-job panic, downgraded to an error so one
// crashed job cannot take down the sweep.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the crashing goroutine's stack trace.
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("sweep: job panicked: %v", e.Value) }

// Stats aggregates a finished sweep.
type Stats struct {
	Jobs    int
	Failed  int
	Workers int
	// Wall is the sweep's wall-clock time, circuit preload included;
	// Compute is the sum of per-job elapsed times, so Compute/Wall
	// estimates the realised parallelism.
	Wall    time.Duration
	Compute time.Duration
	// Phases sums the per-phase timings across all successful jobs.
	Phases core.Phases
	// JobsPerSec is Jobs / Wall.
	JobsPerSec float64
}

// Speedup is the realised parallelism Compute/Wall (1.0 on one worker).
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Compute) / float64(s.Wall)
}

// Report is a completed sweep: one JobResult per input job, in input order.
type Report struct {
	Jobs  []JobResult
	Stats Stats
	// Cache is the artifact cache's Stats after the run: per-stage hits,
	// misses, and evictions. A process runs at most one sweep per cache,
	// so that is this run's traffic plus whatever the caller compiled
	// through the cache beforehand.
	Cache CacheStats
}

// Histograms builds the sweep's latency histograms after the fact, in job
// order, from the per-job result structs — the same aggregation
// discipline as Metrics, applied to timing data. Each job fills
// latency.sweep.job and one latency.phase.<name> histogram per
// core.PhaseNames entry. Zero durations are skipped — they mark stages
// attributed to another job through the shared-prefix cache. Embedded
// coverage campaigns contribute their per-batch histograms by merging.
// The result is timing data: render it only where a timing trailer would
// render.
func (r *Report) Histograms() *obs.HistogramSet {
	hs := obs.NewHistogramSet()
	observe := func(name string, d time.Duration) {
		if d > 0 {
			hs.Observe(name, d)
		}
	}
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		if jr.Err != nil {
			continue
		}
		observe("latency.sweep.job", jr.Elapsed)
		jr.Phases.Each(func(name string, d time.Duration) { observe("latency.phase."+name, d) })
		if jr.Coverage != nil {
			hs.Merge(jr.Coverage.Latency)
		}
	}
	return hs
}

// FirstErr returns the first failed job's error, or nil when every job
// succeeded.
func (r *Report) FirstErr() error {
	for i := range r.Jobs {
		if err := r.Jobs[i].Err; err != nil {
			return fmt.Errorf("job %d (%s): %w", i, r.Jobs[i].Job, err)
		}
	}
	return nil
}

// Run executes the jobs across the worker pool and returns the per-job
// outcomes in input order, independent of worker count and scheduling.
//
// Setup problems — an invalid job or an unloadable circuit — fail the whole
// sweep before any compilation starts. Per-job failures (compile errors,
// panics, cancellation) are recorded in Report.Jobs[i].Err and never abort
// the sweep; cancelling ctx makes every unfinished job report an error
// wrapping ctx.Err() and Run return promptly once in-flight jobs notice.
func Run(ctx context.Context, jobs []Job, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Fail fast on a malformed matrix: a bad job is a spec bug, not an
	// experimental outcome.
	//ctxlint:nocancel pure in-memory validation, microseconds per job; work has not started yet
	for i, j := range jobs {
		if j.Circuit == "" {
			return nil, fmt.Errorf("sweep: job %d: empty circuit name", i)
		}
		if err := j.Options().Validate(); err != nil {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, j, err)
		}
	}

	// Preload each distinct circuit once, serially, so load failures are
	// deterministic and the expensive benchmark generators run once per
	// name. The core.Parsed artifact is normalized at construction and
	// immutable afterwards, so workers share it directly — no per-job
	// clone. Loading goes through Cache.Parse, so the parsed-stage
	// counters reflect the matrix shape and a later lookup of the same
	// name shares the artifact. A computed parse is attributed to the first
	// job of its circuit in input order, as a computed analyze or saturate
	// stage is attributed to the job that computed it; Wall starts here to
	// cover those parses.
	start := time.Now()
	cache := cfg.Cache
	if cache == nil {
		cache = NewCache()
	}
	masters := make(map[string]*core.Parsed, len(jobs))
	parsedBy := make([]bool, len(jobs))
	for i, j := range jobs {
		p, computed, err := cache.Parse(ctx, j.Circuit, cfg.Load)
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d: loading circuit %q: %w", i, j.Circuit, err)
		}
		masters[j.Circuit] = p
		parsedBy[i] = computed
	}

	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker goroutine claims its own trace lane, so the
			// Chrome trace shows the pool's true occupancy.
			wctx := obs.LaneContext(ctx, fmt.Sprintf("sweep-worker-%d", w))
			traced := obs.Enabled(wctx)
			log := obs.L(wctx)
			for i := range idx {
				var sp obs.Span
				if traced {
					sp = obs.Start(wctx, "sweep", "job "+jobs[i].String())
				}
				results[i] = runJob(wctx, jobs[i], masters[jobs[i].Circuit], parsedBy[i], cache, cfg)
				sp.End()
				if err := results[i].Err; err != nil {
					log.Warn("sweep job failed", "job", jobs[i].String(), "err", err)
				} else {
					log.Debug("sweep job done", "job", jobs[i].String(), "elapsed", results[i].Elapsed)
				}
				if cfg.Progress != nil {
					cfg.Progress(int(done.Add(1)), len(jobs))
				}
			}
		}(w)
	}
	// Feed every index even after cancellation: runJob observes ctx.Err()
	// first thing, so unstarted jobs drain instantly with a structured
	// cancellation error instead of a half-empty report.
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &Report{Jobs: results}
	rep.Stats = aggregate(results, workers, time.Since(start))
	rep.Cache = cache.Stats()
	obs.L(ctx).Info("sweep done", "jobs", rep.Stats.Jobs,
		"failed", rep.Stats.Failed, "workers", rep.Stats.Workers,
		"wall", rep.Stats.Wall)
	return rep, nil
}

// runJob compiles one job. When parsedHere, the job triggered the preload's
// parse of master, whose time joins both its Phases and its Elapsed.
func runJob(ctx context.Context, j Job, master *core.Parsed, parsedHere bool, cache *Cache, cfg Config) (res JobResult) {
	res.Job = j
	defer func() {
		if r := recover(); r != nil {
			res = JobResult{Job: j, Err: &PanicError{Value: r, Stack: string(debug.Stack())}}
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = fmt.Errorf("sweep: job not started: %w", err)
		return res
	}
	if cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.JobTimeout)
		defer cancel()
	}
	opt := j.Options()
	if cfg.Lint {
		opt.Lint = true
	}
	begin := time.Now()
	var r *core.Result
	var err error
	if cfg.Compile != nil {
		r, err = cfg.Compile(ctx, master.Circuit(), opt)
	} else {
		r, err = compileStaged(ctx, master, cache, opt)
	}
	res.Elapsed = time.Since(begin)
	if err != nil {
		res.Err = err
		return res
	}
	res.Clusters = len(r.Partition.Clusters)
	res.MaxInputs = r.Partition.MaxInputs()
	res.Areas = r.Areas
	res.Phases = r.Phases
	if parsedHere {
		res.Phases.Add(master.Phases())
		res.Elapsed += master.ParseTime
	}
	res.Kernels = r.Counters
	if cfg.Coverage {
		// The campaign reads the shared normalized circuit and the job's
		// own partition; single-worker because the sweep pool is already
		// saturating the machine, collapsing on because it is strictly
		// cheaper at identical coverage.
		cov, err := fault.Campaign(ctx, master.Circuit(), r.Partition, fault.CampaignOptions{
			MaxPatterns: cfg.CoverageMaxPatterns,
			Seed:        j.Seed,
			Workers:     1,
			Collapse:    true,
		})
		if err != nil {
			res.Err = fmt.Errorf("sweep: coverage campaign: %w", err)
			return res
		}
		res.Coverage = cov
	}
	return res
}

// compileStaged runs one job over the staged pipeline, reusing cached
// analyze/saturate artifacts for the job's (circuit, seed, flow) prefix and
// branching at partitioning via core.CompileFrom. The shared-stage phase
// timings are attributed only to the job that actually computed the stage,
// so aggregated phase totals measure real work, not double-counted reuse.
func compileStaged(ctx context.Context, p *core.Parsed, cache *Cache, opt core.Options) (*core.Result, error) {
	av, computedA, err := cacheStagedArtifact(ctx, cache, stageAnalyzed, p.AnalyzeKey(), analyzedCodec(p), func() (any, error) {
		return core.Analyze(ctx, p)
	})
	if err != nil {
		return nil, err
	}
	a := av.(*core.Analyzed)

	fcfg := opt.FlowConfig()
	sv, computedS, err := cacheStagedArtifact(ctx, cache, stageSaturated, a.SaturateKey(fcfg), saturatedCodec(a), func() (any, error) {
		return core.SaturateNetwork(ctx, a, fcfg)
	})
	if err != nil {
		return nil, err
	}
	s := sv.(*core.Saturated)

	r, err := core.CompileFrom(ctx, s, opt)
	if r != nil {
		if computedA {
			r.Phases.Add(a.Phases())
		}
		if computedS {
			r.Phases.Add(s.Phases())
		}
	}
	return r, err
}

// cacheStagedArtifact wraps Cache.getOrCompute with one retry rule:
// when a *shared* computation fails with another job's cancellation while
// this job's own context is still live, request again (the failed entry was
// dropped, so the retry recomputes under this job's context).
func cacheStagedArtifact(ctx context.Context, cache *Cache, st cacheStage, key string, codec *stageCodec, fn func() (any, error)) (any, bool, error) {
	for {
		v, computed, err := cache.getOrCompute(st, key, codec, fn)
		if err == nil || computed || ctx.Err() != nil ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return v, computed, err
		}
	}
}

func aggregate(results []JobResult, workers int, wall time.Duration) Stats {
	st := Stats{Jobs: len(results), Workers: workers, Wall: wall}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			st.Failed++
			continue
		}
		st.Compute += r.Elapsed
		st.Phases.Add(r.Phases)
	}
	if wall > 0 {
		st.JobsPerSec = float64(st.Jobs) / wall.Seconds()
	}
	return st
}

// LoadCircuit resolves a Job.Circuit reference: a name containing a path
// separator or ending in ".bench" is parsed as a netlist file; anything
// else must be a built-in benchmark (s27 or a Table 9 circuit).
func LoadCircuit(name string) (*netlist.Circuit, error) {
	if isNetlistFile(name) {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(name, f)
	}
	return bench89.Load(name)
}

// isNetlistFile reports whether LoadCircuit reads name from a file rather
// than generating a built-in benchmark.
func isNetlistFile(name string) bool {
	return strings.HasSuffix(name, ".bench") || strings.ContainsRune(name, '/') || strings.ContainsRune(name, os.PathSeparator)
}
