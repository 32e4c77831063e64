package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/retime"
	"repro/internal/sim"
)

// workers is the campaign pool size; core.Compile is serial. A run holds one
// thread of work (main sets GOMAXPROCS to 1): on a 2-vCPU VM of a shared
// host, an op that needs both vCPUs at once read up to 50% slower in runs
// where the other vCPU was busy, and a second P that only runs the garbage
// collector concurrently made the serial compile swing about twice as much
// from run to run (README.md, Noise).
const workers = 1

// params are one workload's inputs at one scale.
type params struct {
	circuits []string
	lks      []int
	// maxPatterns caps each segment's pattern budget (cover only; 0 is the
	// full pseudo-exhaustive budget).
	maxPatterns uint64
}

type workload struct {
	name string
	// full is the measured scale; quick runs the same code path on small
	// circuits for the smoke test.
	full, quick params
	// inputs is how many seeded inputs a run cycles its ops through (see
	// inputSeeds).
	inputs int
	setup  func(p params, seeds []int64) (*instance, error)
}

// inputSeeds returns the seeds of a run's inputs: n consecutive seeds, the
// n·(seed−1)+1-th onwards, so seed 1 covers seeds 1..n and no two run seeds
// share an input. An op's cost depends on its seed by about 8% (IQR over
// seeds 1–10); a run that averages over n seeds carries less of that into
// its metrics.
func inputSeeds(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(n)*(seed-1) + 1 + int64(i)
	}
	return seeds
}

// instance is a set-up workload: inputs built, ready to run ops.
type instance struct {
	// op runs one operation on input in and checks its output. tr is nil
	// on an untraced op; a traced op records spans around each layer call
	// and returns the op's layer metrics.
	op func(ctx context.Context, tr *tracer, in int) (outcome, error)
	// probe, when set, measures once-per-run layer metrics in a traced run.
	probe func(tr *tracer) (map[string]float64, error)
}

// outcome is one checked op result.
type outcome struct {
	// digest identifies the op's deterministic output; every op of a run on
	// the same input must produce the same one.
	digest string
	// quality is the quality_pct metric: saving on compile, 100·coverage on
	// cover.
	quality float64
	// ratioRetimed (A_CBIT/A_Total with retiming, %) and saving (Table 12
	// points) price a compiled partition.
	ratioRetimed, saving float64
	// coverage is detected/total faults (cover only).
	coverage float64
	layers   map[string]float64
}

// The workloads, in the order they are documented: one exercises the
// compiler's layers and bypasses the simulator's, the other the reverse.
// The circuits are the bench89.Load twins of the paper's ISCAS89 benchmarks
// at every seed: twins generated from other seeds differ in compile and
// campaign cost by up to 30% (see README.md), far more than the regression
// bounds. The seeds reach the program as the Saturate_Network and campaign
// seeds. Every op is short, so that a run holds dozens of ops of each input:
// host contention slows ops by up to 1.7x for tens of seconds at a time, and
// the fastest of many repeats is what such stretches leave untouched.
var workloads = []*workload{
	{
		// One serial compile; Saturate_Network is its largest stage.
		name:   "compile",
		full:   params{circuits: []string{"s1423"}, lks: []int{16}},
		quick:  params{circuits: []string{"s510"}, lks: []int{8}},
		inputs: 8,
		setup:  setupCompile,
	},
	{
		// One big sequential segment: escalation batches on the wide-lane
		// kernel are nearly the whole op. The 2^14-pattern cap (1/32 of the
		// segment's full budget) keeps an op short, so a run holds many, and
		// leaves the coverage unchanged. The campaign seed barely moves an
		// op's cost (the fastest ops of seeds 1–4 in one run lay within a few
		// percent), so a run has one input and every op repeats it.
		name:   "cover",
		full:   params{circuits: []string{"s1423"}, lks: []int{18}, maxPatterns: 1 << 14},
		quick:  params{circuits: []string{"s641"}, lks: []int{6}},
		inputs: 1,
		setup:  setupCover,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// compile: parse the serialized .bench text, then core.Compile with the
// input's seed.

func setupCompile(p params, seeds []int64) (*instance, error) {
	name, lk := p.circuits[0], p.lks[0]
	c, err := bench89.Load(name)
	if err != nil {
		return nil, err
	}
	text := c.BenchString()
	op := func(ctx context.Context, tr *tracer, in int) (outcome, error) {
		opt := core.DefaultOptions(lk, seeds[in])
		if tr != nil {
			return tracedCompile(ctx, tr, name, text, opt)
		}
		c, err := netlist.ParseBenchString(name, text)
		if err != nil {
			return outcome{}, err
		}
		r, err := core.Compile(ctx, c, opt)
		if err != nil {
			return outcome{}, err
		}
		return compileOutcome(r.Partition, r.Areas, r.Retiming, r.CombGraph, lk)
	}
	return &instance{op: op}, nil
}

// tracedCompile is core.Compile spelled out stage by stage, with a span
// around each call.
func tracedCompile(ctx context.Context, tr *tracer, name, text string, opt core.Options) (outcome, error) {
	var (
		c  *netlist.Circuit
		p  *core.Parsed
		a  *core.Analyzed
		s  *core.Saturated
		pt *core.Partitioned
		pr *core.Priced
	)
	parse, err := tr.do("netlist.parse", func() (err error) {
		c, err = netlist.ParseBenchString(name, text)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"core.new_parsed", func() (err error) { p, err = core.NewParsed(c); return err }},
		{"core.analyze", func() (err error) { a, err = core.Analyze(ctx, p); return err }},
		{"core.saturate_network", func() (err error) { s, err = core.SaturateNetwork(ctx, a, opt.FlowConfig()); return err }},
		{"core.make_partition", func() (err error) { pt, err = core.MakePartition(ctx, s, opt); return err }},
		{"core.price", func() (err error) { pr, err = core.Price(ctx, pt, opt); return err }},
	}
	for _, st := range stages {
		if _, err := tr.do(st.name, st.fn); err != nil {
			return outcome{}, err
		}
	}
	part, sol := pt.Partition(), pr.Retiming()
	var out outcome
	if _, err := tr.do(checkSpan, func() (err error) {
		out, err = compileOutcome(part, pr.Areas(), sol, pr.CombGraph(), opt.LK)
		return err
	}); err != nil {
		return out, err
	}
	ph := core.Phases{Graph: a.GraphTime, SCC: a.SCCTime, Saturate: s.SaturateTime,
		Group: pt.GroupTime, Assign: pt.AssignTime, Retime: pr.RetimeTime}
	k := core.KernelCounters{
		FlowTrees:          int64(s.Flow().Trees),
		PartitionSteps:     int64(part.BoundarySteps),
		PartitionResplits:  int64(part.Resplits),
		PartitionDFSVisits: int64(part.DFSVisits),
		RefineMoves:        int64(part.RefineMoves),
	}
	if sol != nil {
		k.SolverRounds = int64(sol.Iterations)
		k.SPFARelaxations = int64(sol.Relaxations)
		k.RetimeCovered = int64(len(sol.Covered))
	}
	out.layers = compileLayers(ph, k, part.NumCutNets())
	out.layers["netlist.parse_s"] = parse.Seconds()
	return out, nil
}

// checkCompile checks the paper's invariants on a compiled partition: a
// valid partition, every cluster within l_k inputs, a legal retiming, and
// covered + excess = cut nets.
func checkCompile(part *partition.Result, areas core.AreaReport, sol *retime.Solution, cg *retime.CombGraph, lk int) error {
	if err := part.Validate(); err != nil {
		return err
	}
	if m := part.MaxInputs(); m > lk {
		return fmt.Errorf("a cluster has %d inputs, over l_k=%d", m, lk)
	}
	if sol == nil || cg == nil {
		return errors.New("no retiming solution")
	}
	if err := cg.CheckLegal(sol.Rho); err != nil {
		return err
	}
	if areas.CoveredCuts+areas.ExcessCuts != areas.CutNets {
		return fmt.Errorf("covered %d + excess %d != cut nets %d", areas.CoveredCuts, areas.ExcessCuts, areas.CutNets)
	}
	return nil
}

func compileOutcome(part *partition.Result, areas core.AreaReport, sol *retime.Solution, cg *retime.CombGraph, lk int) (outcome, error) {
	if err := checkCompile(part, areas, sol, cg, lk); err != nil {
		return outcome{}, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", areas)
	for _, cl := range part.Clusters {
		fmt.Fprintln(h, cl.Nodes)
	}
	fmt.Fprintln(h, part.CutNets, sol.Rho, sol.Covered, sol.Demoted)
	return outcome{digest: hex.EncodeToString(h.Sum(nil)), quality: areas.Saving(),
		ratioRetimed: areas.RatioRetimed, saving: areas.Saving()}, nil
}

// compileLayers maps phase times and kernel counters to the compile-layer
// metrics.
func compileLayers(ph core.Phases, k core.KernelCounters, cutNets int) map[string]float64 {
	m := map[string]float64{
		"graph.build_s":            ph.Graph.Seconds(),
		"graph.scc_s":              ph.SCC.Seconds(),
		"flow.saturate_s":          ph.Saturate.Seconds(),
		"flow.trees":               float64(k.FlowTrees),
		"partition.group_s":        ph.Group.Seconds(),
		"partition.assign_s":       ph.Assign.Seconds(),
		"partition.dfs_visits":     float64(k.PartitionDFSVisits),
		"partition.boundary_steps": float64(k.PartitionSteps),
		"partition.resplits":       float64(k.PartitionResplits),
		"partition.refine_moves":   float64(k.RefineMoves),
		"partition.cut_nets":       float64(cutNets),
		"retime.solve_s":           ph.Retime.Seconds(),
		"retime.solver_rounds":     float64(k.SolverRounds),
		"retime.spfa_relaxations":  float64(k.SPFARelaxations),
	}
	if ph.Saturate > 0 {
		m["flow.trees_per_s"] = float64(k.FlowTrees) / ph.Saturate.Seconds()
	}
	if cutNets > 0 {
		m["retime.covered_ratio"] = float64(k.RetimeCovered) / float64(cutNets)
	}
	return m
}

// cover: fault.Campaign over a partition compiled in setup, one worker,
// collapsing on.

// partitionSeed is the flow seed of the cover workload's partition. The
// partition is part of the workload, not of the seeded input: the largest
// segment sets a campaign's critical path, and it changes with the flow
// seed (174 to 314 cells on s5378 at l_k=12, and 33 to 53 ms per op). The
// input seeds drive the campaign's LFSRs.
const partitionSeed = 1

func setupCover(p params, seeds []int64) (*instance, error) {
	name, lk := p.circuits[0], p.lks[0]
	c, err := bench89.Load(name)
	if err != nil {
		return nil, err
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(lk, partitionSeed))
	if err != nil {
		return nil, err
	}
	if err := checkCompile(r.Partition, r.Areas, r.Retiming, r.CombGraph, lk); err != nil {
		return nil, err
	}
	op := func(ctx context.Context, tr *tracer, in int) (outcome, error) {
		opt := fault.CampaignOptions{Seed: seeds[in], Workers: workers, Collapse: true, MaxPatterns: p.maxPatterns}
		var rep *fault.CampaignReport
		if _, err := tr.do("fault.campaign", func() (err error) {
			rep, err = fault.Campaign(ctx, r.Circuit, r.Partition, opt)
			return err
		}); err != nil {
			return outcome{}, err
		}
		var out outcome
		if _, err := tr.do(checkSpan, func() (err error) {
			out, err = coverOutcome(rep)
			return err
		}); err != nil || tr == nil {
			return out, err
		}
		out.layers = campaignLayers(rep)
		return out, nil
	}
	probe := func(tr *tracer) (map[string]float64, error) {
		return segmentProbe(tr, r.Circuit, r.Partition)
	}
	return &instance{op: op, probe: probe}, nil
}

// checkCover checks a campaign's counts: faults exist, and no segment (nor
// the total) reports more detected faults than it has.
func checkCover(rep *fault.CampaignReport) error {
	if rep.Total == 0 {
		return errors.New("campaign has no faults")
	}
	if rep.Detected > rep.Total {
		return fmt.Errorf("detected %d > total %d", rep.Detected, rep.Total)
	}
	for _, sc := range rep.Segments {
		if sc.Detected > sc.Total {
			return fmt.Errorf("cluster %d: detected %d > total %d", sc.Cluster, sc.Detected, sc.Total)
		}
	}
	return nil
}

func coverOutcome(rep *fault.CampaignReport) (outcome, error) {
	if err := checkCover(rep); err != nil {
		return outcome{}, err
	}
	h := sha256.New()
	if err := rep.WriteJSON(h, fault.RenderOptions{}); err != nil {
		return outcome{}, err
	}
	return outcome{digest: hex.EncodeToString(h.Sum(nil)), quality: 100 * rep.Ratio(), coverage: rep.Ratio()}, nil
}

// campaignLayers derives the fault-layer metrics of one campaign from its
// report: busy time per stage is the sum of its batch wall times, and pool
// idle time is workers × campaign wall time minus all busy time.
func campaignLayers(rep *fault.CampaignReport) map[string]float64 {
	busy := func(name string) float64 {
		if h := rep.Latency.Get(name); h != nil {
			return time.Duration(h.Sum()).Seconds()
		}
		return 0
	}
	triage := busy("latency.campaign.batch.triage")
	escalation := busy("latency.campaign.batch.escalation")
	m := map[string]float64{
		"fault.campaign_s":         rep.Elapsed.Seconds(),
		"fault.triage_busy_s":      triage,
		"fault.escalation_busy_s":  escalation,
		"fault.pool_idle_s":        float64(rep.Workers)*rep.Elapsed.Seconds() - triage - escalation,
		"fault.triage_batches":     float64(rep.TriageBatches),
		"fault.escalation_batches": float64(rep.Batches - rep.TriageBatches),
		"fault.survivors":          float64(rep.Survivors),
		"fault.coverage":           rep.Ratio(),
		"fault.triage_drop_ratio":  0,
	}
	if rep.Simulated > 0 {
		m["fault.triage_drop_ratio"] = float64(rep.TriageDetected) / float64(rep.Simulated)
	}
	return m
}

// probeSteps is the LaneEngine.Step count of the kernel probe.
const probeSteps = 1 << 15

// segmentProbe is a separate traced pass over the partition: it builds every
// cluster's segment, fault list and collapsed representatives the way a
// campaign does, then times LaneEngine.Step at widths 1 and 4 on the
// largest segment with its lanes filled from the fault list.
func segmentProbe(tr *tracer, c *netlist.Circuit, part *partition.Result) (map[string]float64, error) {
	var largest *sim.Segment
	var largestFaults []sim.Fault
	maxCells := 0
	build, err := tr.do("sim.build_segments", func() error {
		collapser := fault.NewCollapser(c)
		for _, cl := range part.Clusters {
			inputs := make([]int, 0, len(cl.InputNets))
			for e := range cl.InputNets {
				inputs = append(inputs, e)
			}
			sort.Ints(inputs)
			sg, err := sim.BuildSegment(c, part.G, cl.Nodes, inputs)
			if err != nil {
				return fmt.Errorf("cluster %d: %w", cl.ID, err)
			}
			faults := fault.List(sg)
			collapser.CollapseIndexed(sg, faults)
			if len(cl.Nodes) > maxCells {
				largest, largestFaults, maxCells = sg, faults, len(cl.Nodes)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"sim.build_segment_s":   build.Seconds(),
		"sim.segments":          float64(len(part.Clusters)),
		"sim.max_segment_cells": float64(maxCells),
	}
	if largest == nil {
		return m, nil
	}
	for _, words := range []int{1, 4} {
		var ns float64
		if _, err := tr.do(fmt.Sprintf("sim.step_w%d", words), func() (err error) {
			ns, err = stepNS(largest, largestFaults, words)
			return err
		}); err != nil {
			return nil, err
		}
		m[fmt.Sprintf("sim.step_ns.w%d", words)] = ns
	}
	return m, nil
}

// stepNS times probeSteps LaneEngine.Step calls on sg at the given width
// and returns nanoseconds per step.
func stepNS(sg *sim.Segment, faults []sim.Fault, words int) (float64, error) {
	eng, err := sg.NewLaneEngine(words)
	if err != nil {
		return 0, err
	}
	n := min(len(faults), eng.Lanes())
	for i := 0; i < n; i++ {
		if err := eng.Inject(faults[i], i+1); err != nil {
			return 0, err
		}
	}
	eng.Arm(n)
	pattern := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < probeSteps; i++ {
		eng.Step(pattern)
		pattern ^= pattern << 13
		pattern ^= pattern >> 7
		pattern ^= pattern << 17
	}
	return float64(time.Since(start).Nanoseconds()) / probeSteps, nil
}
