package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/bench89"
	"repro/internal/core"
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
}

// runLint executes the three-layer analysis and returns the process exit
// code. It is the whole of `merced -lint`, factored for testability.
func runLint(cfg lintRun, stdout, stderr io.Writer) int {
	threshold, err := lint.ParseSeverity(cfg.threshold)
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return exitOperational
	}

	ctx, err := loadLintContext(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "merced:", err)
		return exitOperational
	}

	diags := lint.RunLayer(ctx, lint.LayerNetlist)

	// Deeper layers only make sense on a structurally sound netlist.
	if ctx.Circuit != nil && !lint.HasAtLeast(diags, lint.Error) {
		opt := sweep.Job{LK: cfg.lk, Beta: cfg.beta, Seed: cfg.seed}.Options()
		res, err := core.Compile(context.Background(), ctx.Circuit, opt)
		if err != nil {
			fmt.Fprintln(stderr, "merced: lint: compile for partition-layer checks failed:", err)
			return exitOperational
		}
		ctx.Graph, ctx.SCC = res.Graph, res.SCC
		ctx.Partition, ctx.Retiming, ctx.CombGraph = res.Partition, res.Retiming, res.CombGraph
		ctx.LK, ctx.Beta = opt.LK, opt.Beta
		diags = append(diags, lint.RunLayer(ctx, lint.LayerPartition)...)

		// Emission failure is not fatal: the netlist and partition findings
		// already in hand still stand (e.g. the input is itself an emitted
		// netlist whose control names collide with a second emission).
		if tc, info, err := emit.Testable(res); err != nil {
			fmt.Fprintln(stderr, "merced: lint: skipping BIST-layer checks, emitting test hardware failed:", err)
		} else {
			ctx.BIST = &lint.BISTArtifact{
				Circuit:   tc,
				ScanOrder: info.ScanOrder,
				TB1:       emit.CtrlTB1, TB2: emit.CtrlTB2, TMode: emit.CtrlTMode,
				ScanIn: emit.CtrlScanIn, ScanOut: emit.ScanOut,
			}
			diags = append(diags, lint.RunLayer(ctx, lint.LayerBIST)...)
		}
	}
	lint.Sort(diags)

	if cfg.jsonOut {
		writeLintJSON(stdout, ctx.File, diags)
	} else {
		writeLintText(stdout, ctx.File, diags)
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
