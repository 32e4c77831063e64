package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobspec"
	"repro/internal/sweep"
)

// sweepRun bundles the flag values sweep mode consumes.
type sweepRun struct {
	spec       string // v1 jobspec JSON path; overrides the matrix flags
	circuits   string // comma list, or the aliases "all" / "small"
	lks        string // comma list of l_k values
	betas      string // comma list of beta values
	seeds      string // comma list of seeds
	workers    int
	timeout    time.Duration // whole-sweep deadline (0: none)
	jobTimeout time.Duration // per-job deadline (0: none)
	lint       bool          // gate every job on the design rules (-lint -sweep)
	format     string        // text, json, csv
	noTiming   bool          // deterministic output: omit wall-clock fields
	cacheStats bool          // report per-stage artifact-cache counters

	// cache is the process artifact cache (store-backed under -cache-dir;
	// nil means a run-private one); main owns it and flushes pending disk
	// writes after the mode returns.
	cache *sweep.Cache

	// coverage runs a fault-coverage campaign per compiled job and adds a
	// "coverage" block/column to the report; coverageMaxPatterns caps each
	// campaign's per-fault pattern budget (0: full pseudo-exhaustive).
	coverage            bool
	coverageMaxPatterns uint64

	metrics  bool // append the deterministic kernel-counter table/object
	progress bool // live done/total line on stderr (stdout untouched)
}

// runSweep executes the batch mode and returns the process exit code: 0
// when every job succeeded, 1 on a setup failure or any failed job. It is
// a thin adapter: the flags become a jobspec sweep request and the shared
// jobspec.Run funnel does everything else, so `merced -sweep` and
// `merced -sweep -spec` are the same code path.
func runSweep(ctx context.Context, cfg sweepRun, stdout, stderr io.Writer) int {
	s, err := sweepSpec(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	rt := jobspec.Runtime{Cache: cfg.cache}
	var prog *progressLine
	if cfg.progress {
		prog = newProgressLine(stderr, "jobs")
		rt.Progress = prog.update
	}
	err = jobspec.Run(ctx, s, stdout, rt)
	if prog != nil {
		prog.finish()
	}
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	return 0
}

// sweepSpec builds the jobspec request from the spec file or the matrix
// flags.
func sweepSpec(cfg sweepRun) (*jobspec.Spec, error) {
	if cfg.spec != "" {
		return sweepSpecFile(cfg)
	}
	circuits := splitList(cfg.circuits)
	lks, err := splitInts("lks", cfg.lks)
	if err != nil {
		return nil, err
	}
	betas, err := splitInts("betas", cfg.betas)
	if err != nil {
		return nil, err
	}
	seeds, err := splitInt64s("seeds", cfg.seeds)
	if err != nil {
		return nil, err
	}
	// An empty axis on the command line is a mistake, not a request for the
	// defaults (that defaulting applies to absent JSON fields only).
	if len(circuits) == 0 || len(lks) == 0 || len(betas) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("sweep matrix is empty (check -circuits/-lks/-betas/-seeds)")
	}
	s := &jobspec.Spec{
		V:       jobspec.Version,
		Kind:    jobspec.KindSweep,
		Timeout: jobspec.Duration(cfg.timeout),
		Sweep:   &jobspec.Sweep{Circuits: circuits, LKs: lks, Betas: betas, Seeds: seeds},
	}
	applySweepFlags(s, cfg)
	return s, nil
}

// sweepSpecFile loads a v1 jobspec document for -spec. Explicitly set
// command-line flags override its fields, so `-spec jobs.json -workers 8
// -format csv` works the way the flag-only form does; jobspec.Run then
// validates the result (a kind other than sweep fails there).
func sweepSpecFile(cfg sweepRun) (*jobspec.Spec, error) {
	f, err := os.Open(cfg.spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := jobspec.Decode(f)
	if err != nil {
		return nil, err
	}
	if s.Sweep == nil {
		s.Sweep = &jobspec.Sweep{}
	}
	applySweepFlags(s, cfg)
	return s, nil
}

// applySweepFlags copies flag values into the spec. Only flags whose value
// differs from the flag default are applied, so a spec file's own settings
// survive unless the command line explicitly overrides them. (A Boolean
// flag can therefore turn a spec setting on but not off, and `-format
// text` cannot override a file's "json" — the limits of flag defaulting.)
func applySweepFlags(s *jobspec.Spec, cfg sweepRun) {
	sw := s.Sweep
	if cfg.workers != 0 {
		sw.Workers = cfg.workers
	}
	if cfg.timeout != 0 {
		s.Timeout = jobspec.Duration(cfg.timeout)
	}
	if cfg.jobTimeout != 0 {
		sw.JobTimeout = jobspec.Duration(cfg.jobTimeout)
	}
	if cfg.lint {
		sw.Lint = true
	}
	if cfg.coverage {
		sw.Coverage = true
	}
	if cfg.coverageMaxPatterns != 0 {
		sw.MaxPatterns = cfg.coverageMaxPatterns
	}
	if s.Output == nil {
		s.Output = &jobspec.Output{}
	}
	if cfg.format != "" && cfg.format != "text" {
		s.Output.Format = cfg.format
	}
	if cfg.noTiming {
		s.Output.NoTiming = true
	}
	if cfg.cacheStats {
		s.Output.CacheStats = true
	}
	if cfg.metrics {
		s.Output.Metrics = true
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(flagName, s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitInt64s(flagName, s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %q is not an integer", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}
