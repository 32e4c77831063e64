package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type runConfig struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	quick   bool
}

// detail is the run line printed before the result: what ran, where, and
// the numbers behind the metrics.
type detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick,omitempty"`
	Machine  machine `json:"machine"`
	Commit   string  `json:"commit"`
	// HostCalibMS times a fixed integer loop at workload start, so two runs
	// can be checked for comparable host speed.
	HostCalibMS float64 `json:"host_calib_ms"`
	// SetupS has one setup time per pass over the inputs, the warm-up pass
	// included.
	SetupS []float64 `json:"setup_s"`
	// WarmUpS is the time of the warm-up pass: one checked, untimed op on
	// each input.
	WarmUpS float64 `json:"warmup_s"`
	// Ops pools the timed (untraced) ops of every input; Inputs has them
	// per input.
	Ops    opSummary      `json:"op_s"`
	Inputs []inputSummary `json:"inputs"`
	// RatioRetimedPct (A_CBIT/A_Total with retiming) and SavingPts (Table
	// 12) price compile's partitions; FaultCoverage is detected/total
	// faults on cover. Each is a mean over the run's inputs.
	RatioRetimedPct float64  `json:"ratio_retimed_pct,omitempty"`
	SavingPts       float64  `json:"saving_pts,omitempty"`
	FaultCoverage   float64  `json:"fault_coverage,omitempty"`
	ErrorRate       float64  `json:"error_rate"`
	Errors          []string `json:"errors,omitempty"`
}

// opSummary describes timed (untraced) ops. Tail is the highest percentile
// with at least ten samples beyond it, absent when n is too small for one.
// Samples are the op seconds in run order; ops cycle through the inputs.
type opSummary struct {
	N       int       `json:"n"`
	P50     float64   `json:"p50"`
	TailQ   float64   `json:"tail_q,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// inputSummary describes the timed ops of one input.
type inputSummary struct {
	Seed int64   `json:"seed"`
	N    int     `json:"n"`
	Best float64 `json:"best_s"`
	P50  float64 `json:"p50_s"`
}

// result is the last line of a run: the contract every consumer reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxErrors caps the failure messages a run line carries.
const maxErrors = 5

// run sets the workload up, runs ops back to back for cfg.seconds (one
// client, closed loop) and returns the run line, the result, and the
// tracer of a traced run.
func run(ctx context.Context, cfg runConfig) (*detail, *result, *tracer, error) {
	w := cfg.w
	d := &detail{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Quick: cfg.quick, Machine: fingerprint(), Commit: commit(), HostCalibMS: hostCalib()}
	p := w.full
	if cfg.quick {
		p = w.quick
	}
	seeds := inputSeeds(cfg.seed, w.inputs)
	setup := func() (*instance, error) {
		runtime.GC()
		start := time.Now()
		inst, err := w.setup(p, seeds)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d.SetupS = append(d.SetupS, time.Since(start).Seconds())
		return inst, nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.name)
	}
	res := &result{}
	refs := make([]outcome, len(seeds)) // each input's first successful outcome
	check := func(in int, out outcome, err error) {
		res.Attempted++
		ref := &refs[in]
		if err == nil && ref.digest != "" && out.digest != ref.digest {
			err = fmt.Errorf("seed %d: output digest %.12s differs from the first op's %.12s", seeds[in], out.digest, ref.digest)
		}
		switch {
		case err != nil:
			res.Failed++
			if len(d.Errors) < maxErrors {
				d.Errors = append(d.Errors, err.Error())
			}
		case ref.digest == "":
			*ref = out
		}
	}
	inst, err := setup()
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	for in := range seeds {
		out, err := inst.op(ctx, nil, in)
		check(in, out, err)
	}
	d.WarmUpS = time.Since(start).Seconds()

	s, err := opLoop(ctx, setup, len(seeds), tr, cfg.seconds, check)
	if err != nil {
		return nil, nil, nil, err
	}
	var best []float64
	for in, xs := range s.untraced {
		is := inputSummary{Seed: seeds[in], N: len(xs), Best: percentile(xs, 0), P50: percentile(xs, 0.5)}
		d.Inputs = append(d.Inputs, is)
		if is.N > 0 {
			best = append(best, is.Best)
		}
	}
	d.Ops = summarize(s.order)
	var quality float64
	for _, ref := range refs {
		n := float64(len(refs))
		d.RatioRetimedPct += ref.ratioRetimed / n
		d.SavingPts += ref.saving / n
		d.FaultCoverage += ref.coverage / n
		quality += ref.quality / n
	}
	d.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	if tr == nil {
		res.Metrics = metricSet(endToEnd, map[string]float64{
			"setup_s":      median(d.SetupS),
			"op_s.best":    mean(best),
			"peak_rss_mib": percentile(s.rss, 0.5),
			"quality_pct":  quality,
		})
		return d, res, nil, nil
	}

	layers := s.layers
	for k := range layers {
		layers[k] /= float64(len(s.traced))
	}
	if s.inst.probe != nil {
		tr.op = -1
		probe, err := s.inst.probe(tr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
		for k, v := range probe {
			layers[k] = v
		}
	}
	if len(s.order) > 0 {
		layers["trace.overhead_pct"] = 100 * (median(s.traced)/median(s.order) - 1)
	}
	layers["trace.unattributed_pct"] = tr.layers().UnattributedPct
	layers["host.calib_ms"] = d.HostCalibMS
	res.Metrics = metricSet(perLayer, layers)
	return d, res, tr, nil
}

// samples are what the op loop measured: the untraced ops' seconds per
// input and in run order, and their peak RSS; the traced ops' seconds, and
// their layer metrics summed. inst is the last instance set up.
type samples struct {
	untraced           [][]float64
	order, traced, rss []float64
	layers             map[string]float64
	inst               *instance
}

// setupEvery is the least time between two setups of the op loop.
const setupEvery = time.Second

// opLoop runs ops back to back for the run length, in passes over the n
// inputs, handing each outcome to check. A pass starts with a fresh setup
// when setupEvery has passed since the last one, so setup times are sampled
// across the whole run as op times are, and a workload with short passes
// does not spend most of its run setting up. Each op starts from a
// collected heap, so its peak RSS and GC work depend on the op alone, not
// on garbage its predecessors left. With a tracer it alternates traced and
// untraced passes, so the trace's overhead is measured against untraced ops
// of the same process and inputs.
func opLoop(ctx context.Context, setup func() (*instance, error), n int, tr *tracer, seconds time.Duration, check func(int, outcome, error)) (*samples, error) {
	debug.FreeOSMemory()
	s := &samples{untraced: make([][]float64, n), layers: make(map[string]float64)}
	var opS float64 // total seconds of the ops run so far
	var lastSetup time.Time
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		in := i % n
		if in == 0 && time.Since(lastSetup) >= setupEvery {
			lastSetup = time.Now()
			var err error
			if s.inst, err = setup(); err != nil {
				return nil, err
			}
		}
		inst := s.inst
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var sec float64
		if tr != nil && (i/n)%2 == 0 {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			tr.op = i
			var out outcome
			dur, err := tr.do(opSpan, func() (err error) {
				out, err = inst.op(ctx, tr, in)
				return err
			})
			runtime.ReadMemStats(&ms1)
			check(in, out, err)
			sec = dur.Seconds()
			s.traced = append(s.traced, sec)
			for k, v := range out.layers {
				s.layers[k] += v
			}
			s.layers["runtime.alloc_mib"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			s.layers["runtime.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		} else {
			t0 := time.Now()
			out, err := inst.op(ctx, nil, in)
			sec = time.Since(t0).Seconds()
			check(in, out, err)
			s.untraced[in] = append(s.untraced[in], sec)
			s.order = append(s.order, sec)
			peak, err := peakRSSMiB()
			if err != nil {
				return nil, err
			}
			s.rss = append(s.rss, peak)
		}
		// Start another op only while it is expected to end less than half
		// an op past the run length.
		opS += sec
		if time.Since(start).Seconds()+opS/float64(i+1)/2 >= seconds.Seconds() {
			break
		}
	}
	return s, ctx.Err()
}

func summarize(xs []float64) opSummary {
	s := opSummary{N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	s.P50, s.Min, s.Max = percentile(xs, 0.5), percentile(xs, 0), percentile(xs, 1)
	if q, ok := tailQuantile(len(xs)); ok {
		s.TailQ, s.Tail = q, percentile(xs, q)
	}
	return s
}

// machine fingerprints the host, so two runs can be checked as comparable.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func fingerprint() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

var calibSink uint64

// hostCalib times a fixed 2^25-step integer recurrence in milliseconds.
func hostCalib() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<25; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// resetPeakRSS restarts the kernel's peak resident-set count (VmHWM) at the
// current RSS, so the next read gives one op's peak. peak_rss_mib is the
// median of those per-op peaks: the peak of a whole run would be the
// largest of many noisy samples, and setup would count in it.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
