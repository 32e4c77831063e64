package jobspec

// This file is the execution funnel: one Run function that takes a
// validated Spec and produces the report. The merced CLI adapts its flags
// (or a -spec file) into a Spec, so a given Spec renders the same bytes
// whichever way it was written — the byte-identity guarantee between
// `merced -sweep` flags and `-sweep -spec` rests on this file being the
// only renderer.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cbit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ppet"
	"repro/internal/report"
	"repro/internal/retime"
	"repro/internal/sweep"
)

// Runtime is the environment a job runs in. The zero value works: a
// private cache, the built-in circuit loader, no progress reporting.
type Runtime struct {
	// Cache is the shared-prefix artifact cache. Nil means a fresh
	// run-private cache; the CLI passes a store-backed one under
	// -cache-dir so repeat circuits skip straight to partitioning.
	Cache *sweep.Cache
	// Load resolves a circuit name; nil means sweep.LoadCircuit.
	Load func(name string) (*netlist.Circuit, error)
	// Progress, when non-nil, receives done/total counts as the job
	// advances (sweep: jobs; cover: fault batches). Calls may arrive
	// concurrently from worker goroutines.
	Progress func(done, total int)
	// OnCompileResult, when non-nil, receives the full *core.Result of a
	// compile job after the report is written — the CLI hangs -emit and
	// -min-period-adjacent extras here without jobspec knowing about them.
	OnCompileResult func(*core.Result) error
}

// Run executes a normalized, validated spec and writes its report to w.
// It normalizes and validates defensively (both are cheap and idempotent),
// applies Spec.Timeout as a context deadline, and dispatches on Kind.
//
// The error is nil only when the job fully succeeded: a sweep whose
// report was rendered but which had failing jobs returns the first job's
// error (the report has already been written to w), matching the CLI's
// exit-1-after-printing behavior.
func Run(ctx context.Context, s *Spec, w io.Writer, rt Runtime) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(s.Timeout))
		defer cancel()
	}
	cache := rt.Cache
	if cache == nil {
		cache = sweep.NewCache()
	}
	switch s.Kind {
	case KindCompile:
		return runCompile(ctx, s, w, rt, cache)
	case KindSweep:
		return runSweep(ctx, s, w, rt, cache)
	case KindCover:
		return runCover(ctx, s, w, rt, cache)
	}
	return fieldErrf("kind", "unknown kind %q", s.Kind) // unreachable after Validate
}

// compileOptions builds the core options for the shared single-job
// coordinates, mirroring the CLI flag plumbing.
func compileOptions(lk, beta int, seed int64, noRetime bool) core.Options {
	opt := core.DefaultOptions(lk, seed)
	opt.Beta = beta
	opt.SolveRetiming = !noRetime
	return opt
}

// expandJobs expands a sweep body into its ordered job list: the matrix
// crossing first, then the explicit jobs.
func (sw *Sweep) expandJobs() ([]sweep.Job, error) {
	circuits, err := sweep.ExpandCircuits(sw.Circuits)
	if err != nil {
		return nil, err
	}
	jobs := sweep.Matrix(circuits, sw.LKs, sw.Betas, sw.Seeds)
	for _, j := range sw.Jobs {
		jobs = append(jobs, sweep.Job{Circuit: j.Circuit, LK: j.LK, Beta: j.Beta, Seed: j.Seed})
	}
	if len(jobs) == 0 {
		return nil, fieldErrf("sweep", "job matrix is empty")
	}
	return jobs, nil
}

func runSweep(ctx context.Context, s *Spec, w io.Writer, rt Runtime, cache *sweep.Cache) error {
	sw := s.Sweep
	jobs, err := sw.expandJobs()
	if err != nil {
		return err
	}
	universe := jobs
	var shard sweep.Shard
	var globals []int
	if sw.Shard != nil {
		shard = sweep.Shard{Index: sw.Shard.Index, Count: sw.Shard.Count}
		jobs, globals = shard.Select(universe)
	}
	cfg := sweep.Config{
		Workers:             sw.Workers,
		JobTimeout:          time.Duration(sw.JobTimeout),
		NoRetimeSolver:      sw.NoRetimeSolver,
		Lint:                sw.Lint,
		NoCache:             sw.NoCache,
		Coverage:            sw.Coverage,
		CoverageMaxPatterns: sw.MaxPatterns,
		Cache:               cache,
		Progress:            rt.Progress,
		Load:                rt.Load,
	}
	rep, err := sweep.Run(ctx, jobs, cfg)
	if err != nil {
		return err
	}
	if sw.Shard != nil {
		// A shard's output is always its self-describing JSON document —
		// the requested format travels inside it and `merced merge`
		// renders the reassembled report with it.
		sr := sweep.BuildShardReport(shard, universe, globals, rep,
			sweep.ShardConfig{
				NoRetimeSolver: sw.NoRetimeSolver,
				Lint:           sw.Lint,
				Coverage:       sw.Coverage,
				MaxPatterns:    sw.MaxPatterns,
			},
			sweep.ShardOutput{
				Format:     s.Output.Format,
				NoTiming:   s.Output.NoTiming,
				CacheStats: s.Output.CacheStats,
				Metrics:    s.Output.Metrics,
			})
		if err := sr.WriteJSON(w); err != nil {
			return err
		}
		if rep.Stats.Failed > 0 {
			return rep.FirstErr()
		}
		return nil
	}
	opts := sweep.RenderOptions{Timing: !s.Output.NoTiming, CacheStats: s.Output.CacheStats, Metrics: s.Output.Metrics}
	switch s.Output.Format {
	case "json":
		err = rep.WriteJSON(w, opts)
	case "csv":
		err = rep.WriteCSV(w, opts)
	default:
		err = rep.WriteText(w, opts)
	}
	if err != nil {
		return err
	}
	if rep.Stats.Failed > 0 {
		return rep.FirstErr()
	}
	return nil
}

func runCover(ctx context.Context, s *Spec, w io.Writer, rt Runtime, cache *sweep.Cache) error {
	cv := s.Cover
	r, err := cache.Compile(ctx, cv.Circuit, rt.Load, compileOptions(cv.LK, cv.Beta, cv.Seed, cv.NoRetimeSolver))
	if err != nil {
		return err
	}
	copt := fault.CampaignOptions{
		MaxPatterns: cv.MaxPatterns,
		Seed:        cv.Seed,
		Workers:     cv.Workers,
		Collapse:    !cv.NoCollapse,
		Progress:    rt.Progress,
	}
	rep, err := fault.Campaign(ctx, r.Circuit, r.Partition, copt)
	if err != nil {
		return err
	}
	opts := fault.RenderOptions{Timing: !s.Output.NoTiming, Undetected: s.Output.Undetected, Metrics: s.Output.Metrics}
	switch s.Output.Format {
	case "json":
		return rep.WriteJSON(w, opts)
	case "csv":
		return rep.WriteCSV(w, opts)
	default:
		return rep.WriteText(w, opts)
	}
}

func runCompile(ctx context.Context, s *Spec, w io.Writer, rt Runtime, cache *sweep.Cache) error {
	cp := s.Compile
	r, err := cache.Compile(ctx, cp.Circuit, rt.Load, compileOptions(cp.LK, cp.Beta, cp.Seed, cp.NoRetimeSolver))
	if err != nil {
		return err
	}
	writeCompileReport(w, r, cp.LK, cp.Verbose)
	if s.Output.Metrics {
		m := obs.NewMetrics()
		r.Counters.AddTo(m)
		fmt.Fprintln(w)
		if err := m.WriteTable(w); err != nil {
			return err
		}
	}
	if cp.MinPeriod {
		if err := writeMinPeriod(w, r); err != nil {
			return err
		}
	}
	if rt.OnCompileResult != nil {
		return rt.OnCompileResult(r)
	}
	return nil
}

// writeMinPeriod appends the -min-period line: the as-designed clock
// period against the best achievable by retiming alone (unit delays).
func writeMinPeriod(w io.Writer, r *core.Result) error {
	cg := retime.Build(r.Graph)
	zero := make([]int, len(cg.Vertices))
	p0, err := cg.Period(zero)
	if err != nil {
		return err
	}
	_, p, err := retime.MinimizePeriod(cg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clock period (unit gate delays): %d as designed, %d after min-period retiming\n", p0, p)
	return nil
}

// writeCompileReport renders the single-compilation text report (the
// CLI's default mode output, moved here so the server's compile jobs are
// byte-identical to it).
func writeCompileReport(w io.Writer, r *core.Result, lk int, verbose bool) {
	fmt.Fprintf(w, "Merced BIST compiler — %s\n", r.Circuit)
	fmt.Fprintf(w, "l_k=%d: %d clusters, max inputs %d, %d cut nets (%d on SCCs)\n",
		lk, len(r.Partition.Clusters), r.Partition.MaxInputs(),
		r.Areas.CutNets, r.Areas.CutNetsOnSCC)
	fmt.Fprintf(w, "flip-flops: %d total, %d on SCCs\n", r.Areas.DFFs, r.Areas.DFFsOnSCC)
	fmt.Fprintf(w, "flow: %d shortest-path trees; group split passes: %d; %d merges\n",
		r.Flow.Trees, r.Partition.BoundarySteps, len(r.Merges))
	if r.Retiming != nil {
		fmt.Fprintf(w, "retiming: %d cut nets covered by repositioned registers, %d need multiplexed A_CELLs (%d solver rounds)\n",
			len(r.Retiming.Covered), len(r.Retiming.Demoted), r.Retiming.Iterations)
	}
	fmt.Fprintf(w, "CBIT area: %.0f units with retiming vs %.0f without (circuit %.0f)\n",
		r.Areas.CBITAreaRetimed, r.Areas.CBITAreaNonRetimed, r.Areas.CircuitArea)
	fmt.Fprintf(w, "A_CBIT/A_Total: %.1f%% with retiming, %.1f%% without (saving %.1f points)\n",
		r.Areas.RatioRetimed, r.Areas.RatioNonRetimed, r.Areas.Saving())

	if plan, err := ppet.BuildPlan(r.Partition); err == nil {
		pipes := ppet.Pipes(r.Partition)
		fmt.Fprintf(w, "testing time: 2^%d = %.0f clock cycles across %d test pipes (widest CBIT dominates); serial PET would need %.0f (%.1fx)\n",
			plan.MaxWidth, plan.TotalTime, len(pipes), ppet.PETTime(plan), plan.SpeedUp())
	}
	fmt.Fprintf(w, "compile time: %v (%s)\n", r.Elapsed, r.Phases.Format(0))

	if !verbose {
		return
	}
	t := report.NewTable("\nClusters", "ID", "cells", "inputs", "CBIT type", "CBIT area")
	for _, cl := range r.Partition.Clusters {
		w2, ok := cbit.TypeFor(cl.Inputs())
		typ, area := "-", 0.0
		if ok {
			typ = fmt.Sprintf("%d-bit", w2)
			area = cbit.Area(w2)
		}
		t.AddRowf(cl.ID, len(cl.Nodes), cl.Inputs(), typ, area)
	}
	_ = t.Write(w)

	if len(r.Partition.Clusters) <= 12 {
		fmt.Fprintln(w, "\nCluster membership:")
		for _, cl := range r.Partition.Clusters {
			names := make([]string, 0, len(cl.Nodes))
			for _, v := range cl.Nodes {
				names = append(names, r.Graph.Nodes[v].Name)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "  %d: %v\n", cl.ID, names)
		}
	}
}
