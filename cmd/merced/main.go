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
// The report and -cover modes take -lk, -beta and -seed as given, with
// -beta 0 meaning the paper's 50, exactly as a sweep job does: -lk 0 is
// an error and -seed 0 is seed 0. With -min-period and -emit FILE the
// report is followed by the min-period retiming line and the emitted
// self-testable netlist. A stray argument, or -spec without -sweep, is a
// usage error (exit status 2).
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
// (`-cache-stats` reports the reuse; combined with `-lint`, the netlist
// design rules run once per circuit, not once per job). `-coverage`
// additionally fault-simulates each job's partition and attaches a
// "coverage" block to the JSON report. Ctrl-C cancels the sweep promptly;
// `-timeout` bounds it; exit status is 1 when any job failed.
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
//
// Two subcommands serve the netlists themselves: `merced simulate` drives
// one with random, LFSR or all-zero stimulus (optionally dumping a VCD),
// and `merced benchgen` writes the built-in benchmark suite as .bench
// files.
//
//	merced simulate -circuit s27 -cycles 64 -vcd waves.vcd
//	merced benchgen -out bg -circuits s27,s510
//
// `merced tables` regenerates the paper's Tables 1 and 9-12, Figures 1(b),
// 4 and 8, and the SA, PET and stability extensions, computing every
// compile in one lint-gated sweep (see tables.go for the -table values).
//
//	merced tables -table all -no-timing
//	merced tables -table 10 -circuits s510,s641 -csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench89"
	"repro/internal/cas"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over the given arguments (without the program
// name), returning the process exit code: 2 for a usage error, otherwise
// the selected mode's code.
func run(args []string, stdout, stderr io.Writer) int {
	// `merced cas`, `simulate`, `benchgen` and `tables` are subcommands
	// with their own flag sets, dispatched before the classic flag modes
	// parse.
	if len(args) > 0 {
		switch args[0] {
		case "cas":
			return runCAS(args[1:], stdout, stderr)
		case "simulate":
			return runSimulate(args[1:], stdout, stderr)
		case "benchgen":
			return runBenchgen(args[1:], stdout, stderr)
		case "tables":
			return runTables(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("merced", flag.ContinueOnError)
	fs.SetOutput(stderr)

	file := fs.String("file", "", "path to a .bench netlist")
	circuit := fs.String("circuit", "", "built-in benchmark name (s27 or a Table 9 circuit)")
	lk := fs.Int("lk", 16, "input-size constraint l_k")
	beta := fs.Int("beta", 50, "Eq. (6) SCC cut-budget multiplier")
	seed := fs.Int64("seed", 1, "random seed for Saturate_Network")
	verbose := fs.Bool("v", false, "print per-cluster details")
	minPeriod := fs.Bool("min-period", false, "also report the minimum clock period achievable by retiming (unit delays)")
	emitPath := fs.String("emit", "", "write the self-testable netlist (retimed + A_CELLs + scan chain) to this .bench file")
	doLint := fs.Bool("lint", false, "run the design-rule analyzer instead of compiling a report")
	lintRules := fs.Bool("rules", false, "with -lint: print the rule catalog and exit")
	jsonOut := fs.Bool("json", false, "with -lint: machine-readable JSON output")
	lintSeverity := fs.String("lint-severity", "error", "with -lint: lowest severity that makes the exit status 2 (info, warning, error)")
	doSweep := fs.Bool("sweep", false, "batch-compile a job matrix across a worker pool instead of a single report")
	sweepSpec := fs.String("spec", "", "with -sweep: JSON job-matrix spec file (overrides -circuits/-lks/-betas/-seeds)")
	circuits := fs.String("circuits", "all", "with -sweep: comma-separated circuit names, .bench paths, or the aliases all/small")
	lks := fs.String("lks", "16,24", "with -sweep: comma-separated l_k values")
	betas := fs.String("betas", "50", "with -sweep: comma-separated beta values")
	seeds := fs.String("seeds", "1", "with -sweep: comma-separated seeds")
	workers := fs.Int("workers", 0, "with -sweep/-cover: worker pool size (0: NumCPU)")
	timeout := fs.Duration("timeout", 0, "with -sweep: whole-sweep deadline (0: none)")
	jobTimeout := fs.Duration("job-timeout", 0, "with -sweep: per-job deadline (0: none)")
	format := fs.String("format", "text", "with -sweep/-cover: output format (text, json, csv)")
	noTiming := fs.Bool("no-timing", false, "with -sweep/-cover: omit wall-clock fields for byte-reproducible output")
	cacheStats := fs.Bool("cache-stats", false, "with -sweep: report artifact-cache memory/disk hits, misses, and evictions per stage")
	cacheDir := fs.String("cache-dir", "", "persistent content-addressed artifact store backing the cache (shared across runs; maintain with `merced cas`)")
	sweepCoverage := fs.Bool("coverage", false, "with -sweep: fault-simulate each job's partition and report coverage")
	doCover := fs.Bool("cover", false, "run the parallel fault-coverage campaign instead of a single report")
	maxPatterns := fs.Uint64("max-patterns", 0, "with -cover/-sweep -coverage: per-fault pattern cap (0: full pseudo-exhaustive budget)")
	noCollapse := fs.Bool("no-collapse", false, "with -cover: disable structural fault-equivalence collapsing")
	undetected := fs.Bool("undetected", false, "with -cover: list surviving faults in the text report")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON file of the run to this path (open in chrome://tracing or Perfetto)")
	withMetrics := fs.Bool("metrics", false, "append the deterministic kernel-counter table to the report (JSON: a \"metrics\" object)")
	progress := fs.Bool("progress", false, "with -sweep/-cover: live progress line on stderr (stdout is untouched)")
	logLevel := fs.String("log-level", "off", "structured-log threshold on stderr (off, debug, info, warn, error)")
	logFormat := fs.String("log-format", "text", "structured-log encoding (text, json)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// A word the flag parser stopped at (a stray argument, a mistyped
	// subcommand) would silently drop every flag after it.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "merced: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *sweepSpec != "" && !*doSweep {
		fmt.Fprintln(stderr, "merced: -spec is only valid with -sweep")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}

	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return fail(err)
	}

	// -cache-dir backs the artifact cache with a persistent content-
	// addressed store: hits survive process restarts, and concurrent runs
	// can share one directory (writes are atomic renames).
	// store stays an untyped nil without it: a nil *cas.Store inside the
	// interface would read as a present store.
	var store sweep.ArtifactStore
	if *cacheDir != "" {
		st, err := cas.Open(*cacheDir)
		if err != nil {
			return fail(err)
		}
		store = st
	}
	cache := sweep.NewCacheWithStore(store)

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}

	// The rule catalog sits inside the profiled region like every other
	// mode, so `-lint -rules -cpuprofile` composes instead of silently
	// dropping the profile.
	if *lintRules {
		printRuleCatalog(*jsonOut, stdout)
		stopProfiles()
		return 0
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
			lint: *doLint, format: *format, noTiming: *noTiming,
			cacheStats: *cacheStats, cache: cache,
			coverage: *sweepCoverage, coverageMaxPatterns: *maxPatterns,
			metrics: *withMetrics, progress: *progress,
		}, stdout, stderr)
	case *doLint:
		code = runLint(ctx, lintRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed,
			jsonOut: *jsonOut, threshold: *lintSeverity, cache: cache,
		}, stdout, stderr)
	case *doCover:
		code = runCover(ctx, coverRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed,
			maxPatterns: *maxPatterns, workers: *workers,
			noCollapse: *noCollapse, undetected: *undetected,
			format: *format, noTiming: *noTiming,
			metrics: *withMetrics, progress: *progress, cache: cache,
		}, stdout, stderr)
	default:
		code = runReport(ctx, reportRun{
			file: *file, circuit: *circuit,
			lk: *lk, beta: *beta, seed: *seed,
			verbose: *verbose, minPeriod: *minPeriod,
			emitPath: *emitPath, metrics: *withMetrics, cache: cache,
		}, stdout, stderr)
	}
	stop()
	cache.Flush() // write-behind persists must land before exit
	stopProfiles()
	if rec != nil {
		if err := rec.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintln(stderr, "merced:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
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
