package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cbit"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ppet"
	"repro/internal/report"
	"repro/internal/retime"
	"repro/internal/sweep"
)

// reportRun bundles the flag values the default report mode consumes.
type reportRun struct {
	file, circuit string
	lk, beta      int
	seed          int64
	verbose       bool
	minPeriod     bool
	emitPath      string
	metrics       bool

	// cache is the process artifact cache (store-backed under -cache-dir);
	// main owns it and flushes pending disk writes after the mode returns.
	cache *sweep.Cache
}

// compileOne resolves the single-job options the way every sweep job
// resolves them and compiles through the artifact cache. -file opens
// exactly the named path (no .bench suffix heuristics), preserving the
// historical flag behavior.
func compileOne(ctx context.Context, cache *sweep.Cache, file, circuit string, lk, beta int, seed int64) (*core.Result, error) {
	if file == "" && circuit == "" {
		return nil, fmt.Errorf("one of -file or -circuit is required")
	}
	name := file
	if name == "" {
		name = circuit
	}
	opt := sweep.Job{Circuit: name, LK: lk, Beta: beta, Seed: seed}.Options()
	load := func(string) (*netlist.Circuit, error) { return loadCircuit(file, circuit) }
	return cache.Compile(ctx, name, load, opt)
}

// runReport is the default single-compilation mode: the report, then the
// -metrics table, the -min-period line, and the -emit netlist, in that
// order.
func runReport(ctx context.Context, rr reportRun, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced:", err)
		return 1
	}
	r, err := compileOne(ctx, rr.cache, rr.file, rr.circuit, rr.lk, rr.beta, rr.seed)
	if err != nil {
		return fail(err)
	}
	writeCompileReport(stdout, r, rr.lk, rr.verbose)
	if rr.metrics {
		m := obs.NewMetrics()
		r.Counters.AddTo(m)
		fmt.Fprintln(stdout)
		if err := m.WriteTable(stdout); err != nil {
			return fail(err)
		}
	}
	if rr.minPeriod {
		if err := writeMinPeriod(stdout, r); err != nil {
			return fail(err)
		}
	}
	if rr.emitPath != "" {
		if err := writeTestable(stdout, r, rr.emitPath); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeTestable writes the -emit netlist to path and reports it on w.
func writeTestable(w io.Writer, r *core.Result, path string) error {
	tc, info, err := emit.Testable(r)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
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
	fmt.Fprintf(w, "emitted %s: %d converted registers, %d multiplexed cells, %d boundary cells, scan chain of %d, +%.0f area units\n",
		path, info.Converted, info.Multiplexed-info.Boundary, info.Boundary, len(info.ScanOrder), info.AddedArea)
	return nil
}

// writeMinPeriod appends the -min-period line: the as-designed clock
// period against the best achievable by retiming alone (unit delays).
// Neither Period nor MinimizePeriod writes to the compilation's CombGraph.
func writeMinPeriod(w io.Writer, r *core.Result) error {
	cg := r.CombGraph
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

// writeCompileReport renders the single-compilation text report.
func writeCompileReport(w io.Writer, r *core.Result, lk int, verbose bool) {
	fmt.Fprintf(w, "Merced BIST compiler — %s\n", r.Circuit)
	fmt.Fprintf(w, "l_k=%d: %d clusters, max inputs %d, %d cut nets (%d on SCCs)\n",
		lk, len(r.Partition.Clusters), r.Partition.MaxInputs(),
		r.Areas.CutNets, r.Areas.CutNetsOnSCC)
	fmt.Fprintf(w, "flip-flops: %d total, %d on SCCs\n", r.Areas.DFFs, r.Areas.DFFsOnSCC)
	fmt.Fprintf(w, "flow: %d shortest-path trees; group split passes: %d; %d merges\n",
		r.Flow.Trees, r.Partition.BoundarySteps, len(r.Merges))
	fmt.Fprintf(w, "retiming: %d cut nets covered by repositioned registers, %d need multiplexed A_CELLs (%d solver rounds)\n",
		len(r.Retiming.Covered), len(r.Retiming.Demoted), r.Retiming.Iterations)
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
