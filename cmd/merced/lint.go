package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/bench89"
	"repro/internal/emit"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// Exit codes of lint mode: 0 clean (or findings below the threshold),
// 1 operational failure (bad flags, unreadable file), 2 findings at or
// above the -lint-severity threshold.
const (
	exitClean       = 0
	exitOperational = 1
	exitFindings    = 2
)

// lintRun bundles the flag values lint mode consumes.
type lintRun struct {
	file      string // .bench path (mutually exclusive with circuit)
	circuit   string // built-in benchmark name
	lk        int
	beta      int
	seed      int64
	jsonOut   bool
	threshold string // -lint-severity: exit 2 at or above this severity

	// cache is the process artifact cache (store-backed under -cache-dir);
	// main owns it and flushes pending disk writes after the mode returns.
	cache *sweep.Cache
}

// runLint executes the three-layer analysis and returns the process exit
// code. It is the whole of `merced -lint`, factored for testability. The
// compile behind the deeper layers runs under ctx, so it is cancellable and
// traced like the report mode's, and goes through the artifact cache.
func runLint(ctx context.Context, cfg lintRun, stdout, stderr io.Writer) int {
	threshold, err := lint.ParseSeverity(cfg.threshold)
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return exitOperational
	}

	lctx, err := loadLintContext(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return exitOperational
	}

	diags := lint.RunLayer(lctx, lint.LayerNetlist)

	// Deeper layers only make sense on a structurally sound netlist. The
	// compile is keyed like compileOne's, so report and lint runs share
	// cached prefixes; on a miss it parses the circuit already in hand.
	if lctx.Circuit != nil && !lint.HasAtLeast(diags, lint.Error) {
		name := cfg.file
		if name == "" {
			name = cfg.circuit
		}
		opt := sweep.Job{Circuit: name, LK: cfg.lk, Beta: cfg.beta, Seed: cfg.seed}.Options()
		loaded := func(string) (*netlist.Circuit, error) { return lctx.Circuit, nil }
		res, err := cfg.cache.Compile(ctx, name, loaded, opt)
		if err != nil {
			fmt.Fprintln(stderr, "merced: lint: compile for partition-layer checks failed:", err)
			return exitOperational
		}
		lctx.Circuit, lctx.Graph, lctx.SCC = res.Circuit, res.Graph, res.SCC
		lctx.Partition, lctx.Retiming, lctx.CombGraph = res.Partition, res.Retiming, res.CombGraph
		lctx.LK, lctx.Beta = opt.LK, opt.Beta
		diags = append(diags, lint.RunLayer(lctx, lint.LayerPartition)...)

		// Emission failure is not fatal: the netlist and partition findings
		// already in hand still stand (e.g. the input is itself an emitted
		// netlist whose control names collide with a second emission).
		if tc, info, err := emit.Testable(res); err != nil {
			fmt.Fprintln(stderr, "merced: lint: skipping BIST-layer checks, emitting test hardware failed:", err)
		} else {
			lctx.BIST = &lint.BISTArtifact{
				Circuit:   tc,
				ScanOrder: info.ScanOrder,
				TB1:       emit.CtrlTB1, TB2: emit.CtrlTB2, TMode: emit.CtrlTMode,
				ScanIn: emit.CtrlScanIn, ScanOut: emit.ScanOut,
			}
			diags = append(diags, lint.RunLayer(lctx, lint.LayerBIST)...)
		}
	}
	lint.Sort(diags)

	if cfg.jsonOut {
		writeLintJSON(stdout, lctx.File, diags)
	} else {
		writeLintText(stdout, lctx.File, diags)
	}
	if lint.HasAtLeast(diags, threshold) {
		return exitFindings
	}
	return exitClean
}

// loadLintContext scans the input leniently; Circuit stays nil when the
// text cannot build one (the statement-level rules still run).
func loadLintContext(cfg lintRun) (*lint.Context, error) {
	switch {
	case cfg.file != "":
		text, err := os.ReadFile(cfg.file)
		if err != nil {
			return nil, err
		}
		ctx := lint.NetlistContext(cfg.file, netlist.ScanBenchString(string(text)))
		if c, err := netlist.ParseBenchString(cfg.file, string(text)); err == nil {
			ctx.Circuit = c
		}
		return ctx, nil
	case cfg.circuit != "":
		c, err := bench89.Load(cfg.circuit)
		if err != nil {
			return nil, err
		}
		return lint.CircuitContext(c), nil
	}
	return nil, fmt.Errorf("one of -file or -circuit is required")
}

func writeLintText(w io.Writer, file string, diags []lint.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	fmt.Fprintf(w, "%s: %d error(s), %d warning(s), %d info\n",
		file, lint.Count(diags, lint.Error), lint.Count(diags, lint.Warning), lint.Count(diags, lint.Info))
}

func writeLintJSON(w io.Writer, file string, diags []lint.Diagnostic) {
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		File        string            `json:"file"`
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Errors      int               `json:"errors"`
		Warnings    int               `json:"warnings"`
	}{file, diags, lint.Count(diags, lint.Error), lint.Count(diags, lint.Warning)})
}

// printRuleCatalog renders the registered rule table (`merced -lint -rules`).
func printRuleCatalog(jsonOut bool, w io.Writer) {
	rules := lint.Rules()
	if jsonOut {
		type row struct {
			ID       string `json:"id"`
			Title    string `json:"title"`
			Severity string `json:"severity"`
			Layer    string `json:"layer"`
			Doc      string `json:"doc"`
		}
		rows := make([]row, 0, len(rules))
		for _, r := range rules {
			rows = append(rows, row{r.ID, r.Title, r.Severity.String(), r.Layer.String(), r.Doc})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rows)
		return
	}
	for _, r := range rules {
		fmt.Fprintf(w, "%s  %-18s %-7s %-9s\n", r.ID, r.Title, r.Severity, r.Layer)
		fmt.Fprintf(w, "      %s\n", r.Doc)
	}
	fmt.Fprintf(w, "%d rules registered\n", len(rules))
}
