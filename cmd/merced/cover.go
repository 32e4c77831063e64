package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/jobspec"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// coverRun bundles the flag values cover mode consumes.
type coverRun struct {
	file, circuit string
	lk, beta      int
	seed          int64
	noRetime      bool
	maxPatterns   uint64 // per-fault pattern cap (0: full pseudo-exhaustive)
	workers       int    // campaign worker pool (0: GOMAXPROCS)
	noCollapse    bool   // disable structural fault collapsing
	undetected    bool   // list surviving faults in the text form
	format        string // text, json, csv
	noTiming      bool   // deterministic output: omit wall-clock fields
	metrics       bool   // append the campaign.* counter table/object
	progress      bool   // live done/total batch line on stderr

	// cache, when non-nil, is the two-tier cache backed by -cache-dir;
	// main owns it and flushes pending disk writes after the mode returns.
	cache *sweep.Cache
}

// runCover is the whole of `merced -cover`, adapted onto the jobspec
// funnel: compile through the artifact cache, fault-simulate the partition,
// render. The exit code is 0 on success, 1 on any failure (an unloadable
// circuit always reaches stderr and exits 1, whatever -format or stdout
// redirection is in play).
func runCover(ctx context.Context, cr coverRun, stdout, stderr io.Writer) int {
	if cr.file == "" && cr.circuit == "" {
		fmt.Fprintln(stderr, "merced:", fmt.Errorf("one of -file or -circuit is required"))
		return 1
	}
	name := cr.file
	if name == "" {
		name = cr.circuit
	}
	s := &jobspec.Spec{
		V:    jobspec.Version,
		Kind: jobspec.KindCover,
		Cover: &jobspec.Cover{
			Circuit: name, LK: cr.lk, Beta: cr.beta, Seed: cr.seed,
			NoRetimeSolver: cr.noRetime, Workers: cr.workers,
			MaxPatterns: cr.maxPatterns, NoCollapse: cr.noCollapse,
		},
		Output: &jobspec.Output{
			Format: cr.format, NoTiming: cr.noTiming,
			Undetected: cr.undetected, Metrics: cr.metrics,
		},
	}
	rt := jobspec.Runtime{
		Cache: cr.cache,
		// -file opens exactly the named path (no .bench suffix heuristics),
		// preserving the historical flag behavior.
		Load: func(string) (*netlist.Circuit, error) { return loadCircuit(cr.file, cr.circuit) },
	}
	var prog *progressLine
	if cr.progress {
		prog = newProgressLine(stderr, "batches")
		rt.Progress = prog.update
	}
	err := jobspec.Run(ctx, s, stdout, rt)
	if prog != nil {
		prog.finish()
	}
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	return 0
}
