// Package core is Merced, the paper's BIST compiler (Table 2): it reads a
// circuit, identifies strongly connected components, saturates the network
// with probabilistic multicommodity flow, partitions it under the input
// constraint l_k with the Eq. (6) retiming budget, merges clusters into
// CBITs, and prices the resulting test hardware with and without retiming
// (the Table 10-12 pipeline).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cbit"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/retime"
)

// Options configures a Merced compilation.
type Options struct {
	// LK is the input-size constraint l_k (paper experiments: 16 and 24).
	LK int
	// Beta relaxes the Eq. (6) SCC cut budget (paper: 50).
	Beta int
	// Seed drives every stochastic step.
	Seed int64
	// SkipAssign stops after Make_Group (no CBIT merging pass).
	SkipAssign bool
	// RefinePasses runs the greedy boundary-refinement pass after
	// Assign_CBIT (0 disables; DefaultOptions uses 2).
	RefinePasses int
	// Locked nodes are excluded from clustering (Table 5 STEP 2.1).
	Locked map[int]bool
	// Lint gates the compilation on the internal/lint design rules: the
	// netlist layer runs before STEP 1 and the partition/retiming layer
	// after STEP 3, and any error-severity diagnostic aborts with a
	// *LintError instead of handing corrupt state downstream.
	Lint bool
}

// DefaultOptions returns the paper's experimental configuration for a
// given l_k.
func DefaultOptions(lk int, seed int64) Options {
	return Options{LK: lk, Beta: 50, Seed: seed, RefinePasses: 2}
}

// AreaReport prices the CBIT hardware per the paper's Table 12 accounting:
// with retiming, each covered cut net adds 0.9 DFF (three gates convert a
// repositioned functional register into an A_CELL) and each excess cut net
// on an SCC adds a multiplexed A_CELL at 2.3 DFF; without retiming every
// internal cut net takes the full multiplexed A_CELL.
type AreaReport struct {
	CircuitArea float64

	DFFs      int
	DFFsOnSCC int

	CutNets      int
	CutNetsOnSCC int

	// CoveredCuts / ExcessCuts split CutNets into the retiming solver's
	// covered and demoted nets (the per-cycle register condition of
	// Corollary 2).
	CoveredCuts int
	ExcessCuts  int

	CBITAreaRetimed    float64
	CBITAreaNonRetimed float64

	// RatioRetimed/RatioNonRetimed are A_CBIT/A_Total percentages, where
	// A_Total = circuit area + CBIT area.
	RatioRetimed    float64
	RatioNonRetimed float64
}

// Saving returns the Table 12 percentage-point saving of retiming.
func (a AreaReport) Saving() float64 { return a.RatioNonRetimed - a.RatioRetimed }

// PhaseNames is the compiler's one phase vocabulary: the Table 2 pipeline
// phases in execution order — parse (load and normalize the circuit),
// graph and scc (STEPs 1-2), saturate (Saturate_Network), group
// (Make_Group), assign (Assign_CBIT and refinement), retime (the
// Leiserson-Saxe solver). Result.Phases, the "stage" trace spans and every
// timing report built from them (sweep totals, latency.phase.* histograms
// and the compile report's time line) use these names and this order.
var PhaseNames = [...]string{"parse", "graph", "scc", "saturate", "group", "assign", "retime"}

// Indices into PhaseNames, one per Phases field.
const (
	phaseParse = iota
	phaseGraph
	phaseSCC
	phaseSaturate
	phaseGroup
	phaseAssign
	phaseRetime
)

// Phases breaks a compilation's wall time down per pipeline phase, one
// field per PhaseNames entry. A zero phase did no work for this result: a
// skipped stage, or a shared stage another job computed.
type Phases struct {
	Parse    time.Duration
	Graph    time.Duration
	SCC      time.Duration
	Saturate time.Duration
	Group    time.Duration
	Assign   time.Duration
	Retime   time.Duration
}

// fields returns the phase durations in PhaseNames order.
func (p *Phases) fields() [len(PhaseNames)]*time.Duration {
	return [...]*time.Duration{&p.Parse, &p.Graph, &p.SCC, &p.Saturate, &p.Group, &p.Assign, &p.Retime}
}

// Each calls fn with every phase's name and duration, in PhaseNames order.
func (p Phases) Each(fn func(name string, d time.Duration)) {
	for i, d := range p.fields() {
		fn(PhaseNames[i], *d)
	}
}

// Add accumulates q into p phase by phase.
func (p *Phases) Add(q Phases) {
	qs := q.fields()
	for i, d := range p.fields() {
		*d += *qs[i]
	}
}

// Format renders every phase in order as "parse 1ms, graph 2ms, ...", each
// duration rounded to a multiple of round (round <= 0 keeps it exact).
func (p Phases) Format(round time.Duration) string {
	s := ""
	p.Each(func(name string, d time.Duration) { s += fmt.Sprintf(", %s %v", name, d.Round(round)) })
	return s[len(", "):]
}

// Phases returns a prefix artifact's own build cost as phase times: what a
// job that computed the artifact (rather than reusing it) adds to its
// Result.Phases.
func (p *Parsed) Phases() Phases    { return Phases{Parse: p.ParseTime} }
func (a *Analyzed) Phases() Phases  { return Phases{Graph: a.GraphTime, SCC: a.SCCTime} }
func (s *Saturated) Phases() Phases { return Phases{Saturate: s.SaturateTime} }

// startPhase opens the phase's "stage" trace span, named "<phase>
// <circuit>", and starts its clock. The returned stop closes the span and
// reports the phase's wall time, so spans and Phases measure one interval.
func startPhase(ctx context.Context, phase int, circuit string) (stop func() time.Duration) {
	sp := obs.Start(ctx, "stage", PhaseNames[phase]+" "+circuit)
	start := time.Now()
	return func() time.Duration {
		sp.End()
		return time.Since(start)
	}
}

// KernelCounters are the hot-kernel work counters of one compilation — the
// iteration figures the paper's evaluation reports (and that convergence-
// metric studies of flow-based retiming track), pulled off the stage result
// structs after the fact so the kernels themselves stay uninstrumented.
// Unlike Phases, which attributes a shared cached stage's cost only to the
// job that computed it, counters describe the artifacts a job *consumed*:
// two jobs sharing a Saturated artifact report identical flow counters, so
// aggregated metrics are independent of caching and worker count.
type KernelCounters struct {
	// FlowTrees and FlowInjected summarise Saturate_Network: Dijkstra trees
	// grown and total flow injected across all sources.
	FlowTrees    int64
	FlowInjected float64
	// PartitionSteps / PartitionResplits / PartitionDFSVisits summarise
	// Make_Group: boundary iterations, failed-split backtracks, and
	// Make_Set node visits.
	PartitionSteps     int64
	PartitionResplits  int64
	PartitionDFSVisits int64
	// RefineMoves counts accepted boundary-refinement moves.
	RefineMoves int64
	// SolverRounds / SPFARelaxations / SPFACheckpoints summarise the
	// Leiserson-Saxe solver; RetimeCovered and RetimeDemoted split its
	// cut-net outcome.
	SolverRounds    int64
	SPFARelaxations int64
	SPFACheckpoints int64
	RetimeCovered   int64
	RetimeDemoted   int64
}

// AddTo accumulates the counters into the metrics registry under the
// canonical metric names shared by every report mode.
func (k KernelCounters) AddTo(m *obs.Metrics) {
	m.Add("flow.trees", k.FlowTrees)
	m.AddGauge("flow.injected_flow", k.FlowInjected)
	m.Add("partition.boundary_steps", k.PartitionSteps)
	m.Add("partition.resplits", k.PartitionResplits)
	m.Add("partition.dfs_visits", k.PartitionDFSVisits)
	m.Add("partition.refine_moves", k.RefineMoves)
	m.Add("retime.solver_rounds", k.SolverRounds)
	m.Add("retime.spfa_relaxations", k.SPFARelaxations)
	m.Add("retime.spfa_checkpoints", k.SPFACheckpoints)
	m.Add("retime.covered_cuts", k.RetimeCovered)
	m.Add("retime.demoted_cuts", k.RetimeDemoted)
}

// Result is a complete Merced compilation.
type Result struct {
	Circuit   *netlist.Circuit
	Graph     *graph.G
	SCC       *graph.SCCInfo
	Flow      *flow.Result
	Partition *partition.Result
	Merges    []partition.MergeTrace
	Areas     AreaReport
	// Retiming holds the difference-constraint solution that prices the
	// "with retiming" column; CombGraph is the retiming graph it was solved
	// on. Both are always set on a successful compilation.
	Retiming  *retime.Solution
	CombGraph *retime.CombGraph
	// Lint holds every diagnostic found when Options.Lint ran (all
	// severities, both layers).
	Lint    []lint.Diagnostic
	Elapsed time.Duration
	Phases  Phases
	// Counters are the hot-kernel work counters of the stages this result
	// consumed (shared cached stages included).
	Counters KernelCounters
}

// LintError aborts a compilation whose artifacts violate design rules. The
// partially built Result is still returned alongside it for reporting.
type LintError struct {
	// Stage is "netlist" or "partition", the layer that failed the gate.
	Stage string
	// Diags holds the failing layer's diagnostics (all severities).
	Diags []lint.Diagnostic
}

func (e *LintError) Error() string {
	errs := lint.Count(e.Diags, lint.Error)
	return fmt.Sprintf("core: %s lint gate failed: %d error(s), %d warning(s)",
		e.Stage, errs, lint.Count(e.Diags, lint.Warning))
}

// Validate reports the first configuration error, with enough precision to
// act on. It is called at the top of Compile; sweep drivers call it before
// dispatching a job so a malformed matrix fails fast rather than per-job.
func (o Options) Validate() error {
	switch {
	case o.LK < 1:
		return fmt.Errorf("core: LK must be >= 1 (got %d); the paper's experiments use 16 and 24", o.LK)
	case o.Beta < 0:
		return fmt.Errorf("core: Beta must be >= 0 (got %d); 0 clamps to the Eq. (6) minimum budget of 1", o.Beta)
	case o.RefinePasses < 0:
		return fmt.Errorf("core: RefinePasses must be >= 0 (got %d); 0 disables boundary refinement", o.RefinePasses)
	}
	return nil
}

// FlowConfig returns the Saturate_Network parameters: the paper defaults
// seeded from Options.Seed. Stage drivers use it as part of the Saturated
// artifact key.
func (o Options) FlowConfig() flow.Config { return flow.DefaultConfig(o.Seed) }

// Compile runs the full Merced pipeline of Table 2 on the circuit. It is a
// thin driver over the staged artifact pipeline of stages.go — NewParsed →
// Analyze → SaturateNetwork → MakePartition → Price — computing every stage
// fresh; batch drivers reuse cached stage artifacts via CompileFrom instead.
// The context cancels the compilation: it is checked between phases and
// propagated into the Saturate_Network and retiming-solver loops, so a
// cancelled or expired ctx aborts promptly with an error wrapping ctx.Err().
func Compile(ctx context.Context, c *netlist.Circuit, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c == nil {
		return nil, errors.New("core: nil circuit")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Beta < 1 {
		opt.Beta = 1
	}
	start := time.Now()

	// STEP 0 (optional): netlist design rules, before any stage can choke
	// on a malformed circuit.
	var lintDiags []lint.Diagnostic
	if opt.Lint {
		lintDiags = lint.RunLayer(lint.CircuitContext(c), lint.LayerNetlist)
		if lint.HasAtLeast(lintDiags, lint.Error) {
			return &Result{Circuit: c, Lint: lintDiags}, &LintError{Stage: "netlist", Diags: lintDiags}
		}
	}

	// Parse (normalization happens here, once) and STEPs 1-2.
	p, err := Parse(ctx, c.Name, func(string) (*netlist.Circuit, error) { return c, nil })
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	a, err := Analyze(ctx, p)
	if err != nil {
		return nil, err
	}

	// STEP 3a: Saturate_Network.
	s, err := SaturateNetwork(ctx, a, opt.FlowConfig())
	if err != nil {
		return nil, err
	}

	// STEPs 3b-3c and pricing, plus the artifact-layer lint gate.
	res, err := finish(ctx, s, opt, lintDiags)
	if res != nil {
		ph := &res.Phases
		ph.Parse, ph.Graph, ph.SCC, ph.Saturate = p.ParseTime, a.GraphTime, a.SCCTime, s.SaturateTime
		if err == nil {
			res.Elapsed = time.Since(start)
		}
	}
	return res, err
}

func priceAreas(c *netlist.Circuit, g *graph.G, scc *graph.SCCInfo, p *partition.Result, sol *retime.Solution) AreaReport {
	a := AreaReport{
		CircuitArea:  c.Area(),
		DFFs:         c.NumDFFs(),
		DFFsOnSCC:    g.RegsOnSCC(scc),
		CutNets:      p.NumCutNets(),
		CutNetsOnSCC: p.NumCutNetsOnSCC(),
		CoveredCuts:  len(sol.Covered),
		ExcessCuts:   len(sol.Demoted),
	}
	a.CBITAreaRetimed = float64(a.CoveredCuts)*cbit.RetimedACellArea() +
		float64(a.ExcessCuts)*cbit.ACellMuxArea()
	a.CBITAreaNonRetimed = float64(a.CutNets) * cbit.ACellMuxArea()
	a.RatioRetimed = ratio(a.CBITAreaRetimed, a.CircuitArea)
	a.RatioNonRetimed = ratio(a.CBITAreaNonRetimed, a.CircuitArea)
	return a
}

func ratio(cbitArea, circuitArea float64) float64 {
	if cbitArea == 0 {
		return 0
	}
	return 100 * cbitArea / (circuitArea + cbitArea)
}

// collectCounters pulls the kernel work counters off the stage artifacts a
// result consumed. Counters follow consumption, not computation: a cached
// Saturated artifact reports the same flow counters to every job that uses
// it, keeping metric aggregates independent of caching and scheduling.
func collectCounters(s *Saturated, pt *Partitioned, pr *Priced) KernelCounters {
	k := KernelCounters{
		FlowTrees:          int64(s.res.Trees),
		FlowInjected:       s.res.InjectedTotal(),
		PartitionSteps:     int64(pt.part.BoundarySteps),
		PartitionResplits:  int64(pt.part.Resplits),
		PartitionDFSVisits: int64(pt.part.DFSVisits),
		RefineMoves:        int64(pt.part.RefineMoves),
	}
	sol := pr.retiming
	k.SolverRounds = int64(sol.Iterations)
	k.SPFARelaxations = int64(sol.Relaxations)
	k.SPFACheckpoints = int64(sol.Checkpoints)
	k.RetimeCovered = int64(len(sol.Covered))
	k.RetimeDemoted = int64(len(sol.Demoted))
	return k
}

func solveRetiming(ctx context.Context, g *graph.G, p *partition.Result, f *flow.Result) (*retime.Solution, *retime.CombGraph, error) {
	cg := retime.Build(g)
	cuts := make(map[int]bool, len(p.CutNets))
	for _, e := range p.CutNets {
		cuts[e] = true
	}
	cg.SetRequirements(cuts)
	priority := make(map[int]float64, len(p.CutNets))
	for _, e := range p.CutNets {
		priority[e] = f.D[e]
	}
	sol, err := retime.Solve(ctx, cg, cuts, priority)
	return sol, cg, err
}
