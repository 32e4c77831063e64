package jobspec

// This file is the execution funnel: one Run function that takes a Spec
// and produces the sweep report. The merced CLI adapts its -sweep flags
// (or a -spec file plus flag overrides) into a Spec, so a given Spec
// renders the same bytes whichever way it was written — the byte-identity
// guarantee between `merced -sweep` flags and `-sweep -spec` rests on this
// file being the only renderer.

import (
	"context"
	"io"
	"time"

	"repro/internal/sweep"
)

// Runtime is the environment a sweep runs in. The zero value works: a
// run-private cache, no progress reporting.
type Runtime struct {
	// Cache is the shared-prefix artifact cache. Nil means a run-private
	// cache; the CLI passes its process cache, store-backed under
	// -cache-dir so repeat circuits skip straight to partitioning.
	Cache *sweep.Cache
	// Progress, when non-nil, receives done/total job counts as the sweep
	// advances. Calls may arrive concurrently from worker goroutines.
	Progress func(done, total int)
}

// Run normalizes and validates s, applies Spec.Timeout as a context
// deadline, runs the sweep, and writes its report to w.
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
	sw := s.Sweep
	jobs, err := sw.expandJobs()
	if err != nil {
		return err
	}
	cfg := sweep.Config{
		Workers:             sw.Workers,
		JobTimeout:          time.Duration(sw.JobTimeout),
		Lint:                sw.Lint,
		Coverage:            sw.Coverage,
		CoverageMaxPatterns: sw.MaxPatterns,
		Cache:               rt.Cache,
		Progress:            rt.Progress,
	}
	rep, err := sweep.Run(ctx, jobs, cfg)
	if err != nil {
		return err
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
