// Command merced is the BIST compiler of the paper (Table 2): it reads a
// circuit netlist (ISCAS89 .bench or a built-in benchmark name), partitions
// it for pipelined pseudo-exhaustive testing under the input constraint
// l_k, retimes functional registers onto the cut nets, and reports the
// resulting CBIT hardware cost with and without retiming.
//
// Usage:
//
//	merced -circuit s27 -lk 3
//	merced -file design.bench -lk 16 -beta 50 -seed 1 -v
//
// Lint mode runs the internal/lint design-rule analyzer instead of the
// report: netlist rules always, partition/retiming and BIST rules when the
// circuit compiles. Exit status is 2 when findings reach the
// -lint-severity threshold (default error), 0 otherwise.
//
//	merced -lint -file design.bench -lk 16
//	merced -lint -circuit s27 -lk 3 -json
//	merced -lint -lint-severity warning -circuit s510
//	merced -lint -rules
//
// Sweep mode batch-compiles a (circuit × l_k × beta × seed) job matrix
// across a bounded worker pool; one command reproduces the paper's whole
// Table 10-12 experiment. Jobs sharing a (circuit, seed) prefix reuse one
// cached parse/analyze/saturate computation and branch at partitioning
// (`-no-cache` disables the reuse, `-cache-stats` reports it; combined
// with `-lint`, the netlist design rules run once per circuit, not once
// per job). `-coverage` additionally fault-simulates each job's partition
// and attaches a "coverage" block to the JSON report. Ctrl-C cancels the
// sweep promptly; `-timeout` bounds it; exit status is 1 when any job
// failed.
//
//	merced -sweep
//	merced -sweep -circuits all -lks 16,24 -workers 8 -format csv
//	merced -sweep -spec jobs.json -timeout 10m -format json -no-timing
//	merced -sweep -circuits all -lks 16,24 -betas 25,50,100 -cache-stats
//	merced -sweep -circuits small -coverage -format json -no-timing
//
// Cover mode runs the parallel fault-coverage campaign over one circuit's
// partition: every cluster's single stuck-at faults, packed 63 per batch,
// fanned over `-workers` goroutines with structural collapsing and
// two-stage fault dropping. The report (text, JSON, or CSV via `-format`)
// is byte-identical for any worker count when `-no-timing` is set.
//
//	merced -cover -circuit s510 -lk 8
//	merced -cover -circuit s1423 -lk 12 -workers 8 -format json -no-timing
//	merced -cover -circuit s27 -lk 3 -max-patterns 4096 -undetected
//
// The profiling flags `-cpuprofile` and `-memprofile` write pprof profiles
// covering whichever mode ran:
//
//	merced -cover -circuit s1423 -lk 12 -cpuprofile cover.pprof
//
// Observability flags compose with every mode and never change the report:
// `-trace out.json` exports a Chrome trace_event file with one lane per
// worker goroutine, `-metrics` appends the deterministic kernel-counter
// table (a "metrics" object under `-format json`), `-progress` draws a
// live done/total line on stderr, and `-log-level`/`-log-format` enable
// structured logging (off by default).
//
//	merced -sweep -circuits small -lks 16,24 -trace sweep.json -progress
//	merced -cover -circuit s1423 -lk 12 -metrics -log-level info
//
// With `-metrics` on a timed run the report also carries per-phase latency
// histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench89"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/jobspec"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	// `merced merge` and `merced cas` are subcommands with their own flag
	// sets, dispatched before the classic flag modes parse.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "merge":
			os.Exit(runMerge(os.Args[2:], os.Stdout, os.Stderr))
		case "cas":
			os.Exit(runCAS(os.Args[2:], os.Stdout, os.Stderr))
		}
	}

	file := flag.String("file", "", "path to a .bench netlist")
	circuit := flag.String("circuit", "", "built-in benchmark name (s27 or a Table 9 circuit)")
	lk := flag.Int("lk", 16, "input-size constraint l_k")
	beta := flag.Int("beta", 50, "Eq. (6) SCC cut-budget multiplier")
	seed := flag.Int64("seed", 1, "random seed for Saturate_Network")
	verbose := flag.Bool("v", false, "print per-cluster details")
	noRetime := flag.Bool("no-retime-solver", false, "skip the Leiserson-Saxe solver (per-SCC accounting only)")
	minPeriod := flag.Bool("min-period", false, "also report the minimum clock period achievable by retiming (unit delays)")
	emitPath := flag.String("emit", "", "write the self-testable netlist (retimed + A_CELLs + scan chain) to this .bench file")
	doLint := flag.Bool("lint", false, "run the design-rule analyzer instead of compiling a report")
	lintRules := flag.Bool("rules", false, "with -lint: print the rule catalog and exit")
	jsonOut := flag.Bool("json", false, "with -lint: machine-readable JSON output")
	lintSeverity := flag.String("lint-severity", "error", "with -lint: lowest severity that makes the exit status 2 (info, warning, error)")
	doSweep := flag.Bool("sweep", false, "batch-compile a job matrix across a worker pool instead of a single report")
	sweepSpec := flag.String("spec", "", "with -sweep: JSON job-matrix spec file (overrides -circuits/-lks/-betas/-seeds)")
	circuits := flag.String("circuits", "all", "with -sweep: comma-separated circuit names, .bench paths, or the aliases all/small")
	lks := flag.String("lks", "16,24", "with -sweep: comma-separated l_k values")
	betas := flag.String("betas", "50", "with -sweep: comma-separated beta values")
	seeds := flag.String("seeds", "1", "with -sweep: comma-separated seeds")
	workers := flag.Int("workers", 0, "with -sweep/-cover: worker pool size (0: NumCPU)")
	timeout := flag.Duration("timeout", 0, "with -sweep: whole-sweep deadline (0: none)")
	jobTimeout := flag.Duration("job-timeout", 0, "with -sweep: per-job deadline (0: none)")
	format := flag.String("format", "text", "with -sweep/-cover: output format (text, json, csv)")
	noTiming := flag.Bool("no-timing", false, "with -sweep/-cover: omit wall-clock fields for byte-reproducible output")
	cacheStats := flag.Bool("cache-stats", false, "with -sweep: report artifact-cache memory/disk hits, misses, and evictions per stage")
	noCache := flag.Bool("no-cache", false, "with -sweep: disable shared-prefix artifact reuse (every job compiles from scratch)")
	cacheDir := flag.String("cache-dir", "", "persistent content-addressed artifact store backing the cache (shared across runs; maintain with `merced cas`)")
	shardFlag := flag.String("shard", "", "with -sweep: run slice i/N of the job matrix and emit a shard document (reassemble with `merced merge`)")
	sweepCoverage := flag.Bool("coverage", false, "with -sweep: fault-simulate each job's partition and report coverage")
	doCover := flag.Bool("cover", false, "run the parallel fault-coverage campaign instead of a single report")
	maxPatterns := flag.Uint64("max-patterns", 0, "with -cover/-sweep -coverage: per-fault pattern cap (0: full pseudo-exhaustive budget)")
	noCollapse := flag.Bool("no-collapse", false, "with -cover: disable structural fault-equivalence collapsing")
	undetected := flag.Bool("undetected", false, "with -cover: list surviving faults in the text report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path (open in chrome://tracing or Perfetto)")
	withMetrics := flag.Bool("metrics", false, "append the deterministic kernel-counter table to the report (JSON: a \"metrics\" object)")
	progress := flag.Bool("progress", false, "with -sweep/-cover: live progress line on stderr (stdout is untouched)")
	logLevel := flag.String("log-level", "off", "structured-log threshold on stderr (off, debug, info, warn, error)")
	logFormat := flag.String("log-format", "text", "structured-log encoding (text, json)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merced:", err)
		os.Exit(1)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merced:", err)
		os.Exit(1)
	}

	// -cache-dir backs the artifact cache with a persistent content-
	// addressed store: hits survive process restarts, and concurrent
	// sharded runs can share one directory (writes are atomic renames).
	var cache *sweep.Cache
	if *cacheDir != "" {
		st, err := cas.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merced:", err)
			os.Exit(1)
		}
		cache = sweep.NewCacheWithStore(st)
	}

	// The rule catalog sits inside the profiled region like every other
	// mode, so `-lint -rules -cpuprofile` composes instead of silently
	// dropping the profile.
	if *lintRules {
		printRuleCatalog(*jsonOut, os.Stdout)
		stopProfiles()
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder()
	}
	ctx = obs.With(ctx, rec, 0) // no-op when rec is nil
	ctx = obs.WithLogger(ctx, logger)
	var code int
	switch {
	// -sweep wins over -lint: the combination means "gate every sweep job
	// on the design rules", with the netlist layer linted once per shared
	// Parsed artifact rather than once per job.
	case *doSweep:
		code = runSweep(ctx, sweepRun{
			spec: *sweepSpec, circuits: *circuits, lks: *lks, betas: *betas, seeds: *seeds,
			workers: *workers, timeout: *timeout, jobTimeout: *jobTimeout,
			noRetime: *noRetime, lint: *doLint, format: *format, noTiming: *noTiming,
			cacheStats: *cacheStats, noCache: *noCache, shard: *shardFlag, cache: cache,
			coverage: *sweepCoverage, coverageMaxPatterns: *maxPatterns,
			metrics: *withMetrics, progress: *progress,
		}, os.Stdout, os.Stderr)
	case *doLint:
		code = runLint(lintRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed, noRetime: *noRetime,
			jsonOut: *jsonOut, threshold: *lintSeverity,
		}, os.Stdout, os.Stderr)
	case *doCover:
		code = runCover(ctx, coverRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed, noRetime: *noRetime,
			maxPatterns: *maxPatterns, workers: *workers,
			noCollapse: *noCollapse, undetected: *undetected,
			format: *format, noTiming: *noTiming,
			metrics: *withMetrics, progress: *progress, cache: cache,
		}, os.Stdout, os.Stderr)
	default:
		code = runReport(ctx, reportRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed,
			verbose: *verbose, noRetime: *noRetime, minPeriod: *minPeriod,
			emitPath: *emitPath, metrics: *withMetrics, cache: cache,
		}, os.Stdout, os.Stderr)
	}
	stop()
	if cache != nil {
		cache.Flush() // write-behind persists must land before exit
	}
	stopProfiles()
	if rec != nil {
		if err := rec.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "merced:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// startProfiles turns on the requested pprof collection and returns the
// function that flushes it. Profile teardown must run before os.Exit —
// which skips deferred calls — so main invokes the returned stop
// explicitly on every path.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "merced:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "merced:", err)
			}
			f.Close()
		}
	}, nil
}

// reportRun bundles the flag values the default report mode consumes.
type reportRun struct {
	file, circuit string
	lk, beta      int
	seed          int64
	verbose       bool
	noRetime      bool
	minPeriod     bool
	emitPath      string
	metrics       bool

	// cache, when non-nil, is the two-tier cache backed by -cache-dir;
	// main owns it and flushes pending disk writes after the mode returns.
	cache *sweep.Cache
}

// runReport is the default single-compilation mode, adapted onto the
// jobspec funnel (which owns the report rendering); only the -emit extra
// stays here, hung off the Runtime hook so jobspec does not know about
// netlist emission.
func runReport(ctx context.Context, rr reportRun, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	if rr.file == "" && rr.circuit == "" {
		return fail(fmt.Errorf("one of -file or -circuit is required"))
	}
	name := rr.file
	if name == "" {
		name = rr.circuit
	}
	s := &jobspec.Spec{
		V:    jobspec.Version,
		Kind: jobspec.KindCompile,
		Compile: &jobspec.Compile{
			Circuit: name, LK: rr.lk, Beta: rr.beta, Seed: rr.seed,
			NoRetimeSolver: rr.noRetime, MinPeriod: rr.minPeriod, Verbose: rr.verbose,
		},
		Output: &jobspec.Output{Metrics: rr.metrics},
	}
	rt := jobspec.Runtime{
		Cache: rr.cache,
		// -file opens exactly the named path, preserving the historical
		// flag behavior (no .bench suffix heuristics).
		Load: func(string) (*netlist.Circuit, error) { return loadCircuit(rr.file, rr.circuit) },
	}
	if rr.emitPath != "" {
		rt.OnCompileResult = func(r *core.Result) error {
			tc, info, err := emit.Testable(r)
			if err != nil {
				return err
			}
			f, err := os.Create(rr.emitPath)
			if err != nil {
				return err
			}
			if err := tc.WriteBench(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "emitted %s: %d converted registers, %d multiplexed cells, %d boundary cells, scan chain of %d, +%.0f area units\n",
				rr.emitPath, info.Converted, info.Multiplexed-info.Boundary, info.Boundary, len(info.ScanOrder), info.AddedArea)
			return nil
		}
	}
	if err := jobspec.Run(ctx, s, stdout, rt); err != nil {
		return fail(err)
	}
	return 0
}

func loadCircuit(file, name string) (*netlist.Circuit, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(file, f)
	case name != "":
		return bench89.Load(name)
	default:
		return nil, fmt.Errorf("one of -file or -circuit is required")
	}
}
