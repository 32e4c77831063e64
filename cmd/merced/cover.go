package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/sweep"
)

// coverRun bundles the flag values cover mode consumes.
type coverRun struct {
	file, circuit string
	lk, beta      int
	seed          int64
	maxPatterns   uint64 // per-fault pattern cap (0: full pseudo-exhaustive)
	workers       int    // campaign worker pool (0: GOMAXPROCS)
	noCollapse    bool   // disable structural fault collapsing
	undetected    bool   // list surviving faults in the text form
	format        string // text, json, csv
	noTiming      bool   // deterministic output: omit wall-clock fields
	metrics       bool   // append the campaign.* counter table/object
	progress      bool   // live done/total batch line on stderr

	// cache is the process artifact cache (store-backed under -cache-dir);
	// main owns it and flushes pending disk writes after the mode returns.
	cache *sweep.Cache
}

// coverWriters maps -format to the campaign report renderer.
var coverWriters = map[string]func(*fault.CampaignReport, io.Writer, fault.RenderOptions) error{
	"text": (*fault.CampaignReport).WriteText,
	"json": (*fault.CampaignReport).WriteJSON,
	"csv":  (*fault.CampaignReport).WriteCSV,
}

// runCover is the whole of `merced -cover`: compile through the artifact
// cache, fault-simulate the partition, render. The exit code is 0 on
// success, 1 on any failure (an unloadable circuit always reaches stderr
// and exits 1, whatever -format or stdout redirection is in play).
func runCover(ctx context.Context, cr coverRun, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	write := coverWriters[cr.format]
	switch {
	case cr.file == "" && cr.circuit == "":
		return fail(fmt.Errorf("one of -file or -circuit is required"))
	case write == nil:
		return fail(fmt.Errorf("-format: unknown format %q (want text, json, or csv)", cr.format))
	case cr.workers < 0:
		return fail(fmt.Errorf("-workers: must be >= 0 (got %d)", cr.workers))
	}
	r, err := compileOne(ctx, cr.cache, cr.file, cr.circuit, cr.lk, cr.beta, cr.seed)
	if err != nil {
		return fail(err)
	}
	copt := fault.CampaignOptions{
		MaxPatterns: cr.maxPatterns,
		Seed:        cr.seed,
		Workers:     cr.workers,
		Collapse:    !cr.noCollapse,
	}
	var prog *progressLine
	if cr.progress {
		prog = newProgressLine(stderr, "batches")
		copt.Progress = prog.update
	}
	rep, err := fault.Campaign(ctx, r.Circuit, r.Partition, copt)
	if prog != nil {
		prog.finish()
	}
	if err != nil {
		return fail(err)
	}
	if err := write(rep, stdout, fault.RenderOptions{Timing: !cr.noTiming, Undetected: cr.undetected, Metrics: cr.metrics}); err != nil {
		return fail(err)
	}
	return 0
}
