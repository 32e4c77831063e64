// Package serve is the compiler-as-a-service daemon behind `merced
// serve`: an HTTP/JSON API over the versioned jobspec model. A client
// POSTs the same v1 document the CLI's -spec flag reads, the job runs
// through the same jobspec.Run funnel the CLI uses, and the rendered
// report is byte-identical to the CLI's — the server adds queuing,
// admission control, progress streaming, and a process-lifetime artifact
// cache, never a different compiler.
//
// The execution model is a bounded queue drained by a fixed worker pool.
// Admission is non-blocking: when the queue is full, POST /v1/jobs answers
// 429 with Retry-After instead of holding the connection open, so a
// saturated daemon degrades into fast rejections rather than slow
// timeouts. Cancellation (DELETE) and per-job timeouts propagate as
// context cancellation into every pipeline phase. Draining (SIGTERM in
// the CLI) stops intake, finishes queued and running jobs, and returns.
//
// The artifact cache (sweep.Cache) lives as long as the server: any two
// jobs touching the same (circuit, seed, flow) prefix share one
// parse/analyze/saturate computation, across requests and concurrently
// (the cache is singleflight). /metrics exposes its cumulative counters
// next to the server's own.
package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of job-executing goroutines; <= 0 means
	// runtime.NumCPU(). Each job may itself fan out (a sweep body's own
	// workers), so modest values are usually right.
	Workers int
	// QueueDepth bounds the admission queue; <= 0 means DefaultQueueDepth.
	// A full queue rejects submissions with 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the process-lifetime artifact cache in entries;
	// <= 0 means sweep.DefaultCacheEntries. Ignored when Cache is set.
	CacheSize int
	// Cache, when non-nil, is an externally constructed artifact cache the
	// server adopts instead of building its own — the CLI passes a two-tier
	// cache here under `merced serve -cache-dir`, so artifacts survive
	// server restarts. The owner is responsible for calling Flush after
	// the server drains.
	Cache *sweep.Cache
	// BaseContext is the root every job context derives from; nil means
	// context.Background(). Cancelling it aborts all jobs — the CLI keeps
	// it independent of the SIGTERM handler so shutdown drains instead of
	// killing work in flight.
	BaseContext context.Context
	// MaxBodyBytes caps a POST body; <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Pprof mounts net/http/pprof under /debug/pprof/ and adds live
	// runtime gauges (heap, goroutines, GC) to the Prometheus exposition.
	// Off by default: profiling endpoints on a shared daemon are a
	// deliberate opt-in (`merced serve -pprof`).
	Pprof bool
}

// DefaultQueueDepth bounds the admission queue when Config leaves it 0.
const DefaultQueueDepth = 64

// DefaultMaxBodyBytes caps request bodies when Config leaves it 0. Specs
// are small; a megabyte already allows thousands of explicit jobs.
const DefaultMaxBodyBytes = 1 << 20

// state is a job's lifecycle position. Transitions only move forward:
// queued → running → one of the three terminal states (a job cancelled
// while still queued skips running).
type state string

const (
	stateQueued    state = "queued"
	stateRunning   state = "running"
	stateDone      state = "done"
	stateFailed    state = "failed"
	stateCancelled state = "cancelled"
)

func (st state) terminal() bool {
	return st == stateDone || st == stateFailed || st == stateCancelled
}

// progress is one progress observation, streamed to SSE subscribers.
type progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// job is one submitted spec moving through the queue.
type job struct {
	id     string
	spec   *jobspec.Spec
	ctx    context.Context
	cancel context.CancelFunc
	// finished is closed exactly once, when the job reaches a terminal
	// state; SSE handlers select on it.
	finished chan struct{}
	// submitted and started stamp the queue-wait and run-duration
	// histograms; started stays zero for jobs cancelled while queued.
	submitted time.Time
	started   time.Time

	mu              sync.Mutex
	state           state
	err             error
	report          []byte
	trace           []byte
	prog            progress
	cancelRequested bool
	subs            map[chan progress]struct{}
}

// snapshot reads the job's externally visible fields consistently.
func (j *job) snapshot() (st state, err error, p progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.prog
}

// onProgress is the jobspec.Runtime.Progress callback: record the latest
// counts and fan them out without blocking. A slow SSE reader drops
// intermediate updates (its channel is bounded and sends are best-effort);
// the terminal event always arrives via the finished channel.
func (j *job) onProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if done < j.prog.Done { // concurrent callbacks may arrive out of order
		return
	}
	j.prog = progress{Done: done, Total: total}
	for ch := range j.subs {
		select {
		case ch <- j.prog:
		default:
		}
	}
}

// subscribe registers an SSE listener and returns it with the progress so
// far, so the handler can emit a consistent first event.
func (j *job) subscribe() (chan progress, progress) {
	ch := make(chan progress, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	return ch, j.prog
}

func (j *job) unsubscribe(ch chan progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// Server is the daemon. Construct with New; serve its Handler; stop with
// Drain.
type Server struct {
	cfg     Config
	base    context.Context
	maxBody int64
	cache   *sweep.Cache
	// run executes one job; it is jobspec.Run except in white-box tests,
	// which substitute blocking or failing stubs to drive the queue and
	// lifecycle machinery deterministically.
	run func(ctx context.Context, s *jobspec.Spec, w io.Writer, rt jobspec.Runtime) error
	wg  sync.WaitGroup

	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	queue    chan *job
	draining bool
	counters map[string]int64
	// inflight counts jobs currently in the running state; lat holds the
	// queue-wait and per-kind run-duration histograms. Both are mutated
	// only under mu and exposed as gauges/histograms, never folded into
	// deterministic report output.
	inflight int64
	lat      *obs.HistogramSet
}

// New builds the daemon and starts its worker pool. The caller owns the
// lifecycle: serve s.Handler() over HTTP, then Drain on shutdown.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	cache := cfg.Cache
	if cache == nil {
		cache = sweep.NewCache(cfg.CacheSize)
	}
	s := &Server{
		cfg:      cfg,
		base:     base,
		maxBody:  maxBody,
		cache:    cache,
		run:      jobspec.Run,
		jobs:     make(map[string]*job),
		queue:    make(chan *job, depth),
		counters: make(map[string]int64),
		lat:      obs.NewHistogramSet(),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// Cache exposes the process-lifetime artifact cache (tests assert on its
// counters; /metrics renders them).
func (s *Server) Cache() *sweep.Cache { return s.cache }

// worker drains the queue until Drain closes it. Cancellation is handled
// per job: the loop itself must keep consuming so a drain completes even
// when every remaining job is already cancelled.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(obs.LaneContext(j.ctx, "serve-worker-"+strconv.Itoa(w)), j)
	}
}

// runJob executes one dequeued job to a terminal state.
func (s *Server) runJob(ctx context.Context, j *job) {
	// A job cancelled while still queued finishes without running — the
	// checkpoint that keeps a drain prompt when a client mass-cancels.
	if err := ctx.Err(); err != nil {
		s.finish(j, nil, nil, err)
		return
	}
	j.mu.Lock()
	j.state = stateRunning
	j.started = time.Now()
	started, submitted := j.started, j.submitted
	j.mu.Unlock()
	s.mu.Lock()
	s.inflight++
	if !submitted.IsZero() {
		s.lat.Observe("latency.serve.queue.wait", started.Sub(submitted))
	}
	s.mu.Unlock()

	var rec *obs.Recorder
	if j.spec.Output != nil && j.spec.Output.Trace {
		rec = obs.NewRecorder()
		ctx = obs.With(ctx, rec, 0)
	}
	rt := jobspec.Runtime{Cache: s.cache, Progress: j.onProgress}
	var out bytes.Buffer
	err := s.run(ctx, j.spec, &out, rt)
	var trace []byte
	if rec != nil {
		var tb bytes.Buffer
		if terr := rec.WriteTrace(&tb); terr == nil {
			trace = tb.Bytes()
		}
	}
	s.finish(j, out.Bytes(), trace, err)
}

// finish moves a job to its terminal state and publishes the outcome.
func (s *Server) finish(j *job, report, trace []byte, err error) {
	j.mu.Lock()
	j.report, j.trace, j.err = report, trace, err
	wasRunning := j.state == stateRunning
	started := j.started
	switch {
	case err == nil:
		j.state = stateDone
	case j.cancelRequested || errors.Is(err, context.Canceled):
		j.state = stateCancelled
	default:
		j.state = stateFailed
	}
	st := j.state
	j.mu.Unlock()
	close(j.finished)
	j.cancel() // release the context's resources; the job is over

	s.mu.Lock()
	s.counters["serve."+string(st)]++
	if wasRunning {
		s.inflight--
		s.lat.Observe("latency.serve.job."+string(j.spec.Kind), time.Since(started))
	}
	s.mu.Unlock()
}

// submit admits a job or reports why it can't. The queue send happens
// under the mutex, the same lock Drain closes the channel under, so a
// send on a closed queue is impossible by construction.
func (s *Server) submit(spec *jobspec.Spec) (*job, *apiError) {
	ctx, cancel := context.WithCancel(s.base)
	j := &job{
		spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		finished:  make(chan struct{}),
		state:     stateQueued,
		subs:      make(map[chan progress]struct{}),
		submitted: time.Now(),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, &apiError{status: 503, msg: "server is draining"}
	}
	s.seq++
	j.id = "j" + strconv.Itoa(s.seq)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.counters["serve.submitted"]++
		s.mu.Unlock()
		return j, nil
	default:
		s.seq-- // the id was never published
		s.counters["serve.rejected"]++
		s.mu.Unlock()
		cancel()
		return nil, &apiError{status: 429, msg: "job queue is full", retryAfter: 1}
	}
}

// get looks a job up by id.
func (s *Server) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Drain stops intake and waits for every queued and running job to reach
// a terminal state, or for ctx to expire. It is idempotent. Jobs are
// allowed to finish — a drain is a graceful shutdown, not a cancellation;
// callers wanting a hard stop cancel Config.BaseContext first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics assembles the deterministic counter table: the server's own
// lifecycle counters, current queue occupancy, and the artifact cache's
// cumulative per-stage traffic.
func (s *Server) Metrics() *obs.Metrics {
	m := obs.NewMetrics()
	s.mu.Lock()
	for k, v := range s.counters {
		m.Add(k, v)
	}
	m.Add("serve.queue.depth", int64(cap(s.queue)))
	m.Add("serve.queue.length", int64(len(s.queue)))
	m.Add("serve.jobs.tracked", int64(len(s.jobs)))
	// Live-occupancy gauges: queue_depth is the number of jobs waiting in
	// the queue right now, inflight the number currently running. They
	// mirror exactly the accounting the 429 admission decision sees —
	// queue_depth == serve.queue.depth (capacity) implies submissions are
	// being rejected — which the consistency test pins.
	m.AddGauge("serve.queue_depth", float64(len(s.queue)))
	m.AddGauge("serve.inflight", float64(s.inflight))
	s.mu.Unlock()

	cs := s.cache.Stats()
	for _, sc := range []struct {
		name string
		st   sweep.StageStats
	}{
		{"parsed", cs.Parsed},
		{"analyzed", cs.Analyzed},
		{"saturated", cs.Saturated},
	} {
		m.Add("cache."+sc.name+".hits", sc.st.Hits)
		m.Add("cache."+sc.name+".disk_hits", sc.st.DiskHits)
		m.Add("cache."+sc.name+".misses", sc.st.Misses)
		m.Add("cache."+sc.name+".evictions", sc.st.Evictions)
	}
	m.Add("cache.entries", int64(cs.Entries))
	m.Add("cache.capacity", int64(cs.Capacity))
	return m
}

// Latency snapshots the server's latency histograms — queue wait and
// per-kind run durations — for the Prometheus exposition. The returned
// set is a private copy; mutating it does not touch the server.
func (s *Server) Latency() *obs.HistogramSet {
	out := obs.NewHistogramSet()
	s.mu.Lock()
	out.Merge(s.lat)
	s.mu.Unlock()
	return out
}
