package core

// This file is the staged form of the Table 2 pipeline. Each stage produces
// an immutable artifact — Parsed → Analyzed → Saturated → Partitioned →
// Priced — and every artifact carries a deterministic content key derived
// from its inputs, so two artifacts with equal keys are interchangeable.
// Compile chains the stages for the one-shot CLI path; batch drivers
// (internal/sweep) memoize the shared prefix — parse, analyze, saturate are
// functions of (circuit, seed, flow.Config) only — and branch per job at
// MakePartition, where l_k and β first enter the computation.
//
// Immutability contract: once a stage constructor returns, the artifact and
// everything reachable from it is read-only. Constructors copy any state a
// downstream phase consumes destructively (MakeGroup zeroes distance
// entries, so MakePartition hands it a copy of the Saturated distances),
// which is what makes a cached artifact safe to share across goroutines
// without cloning the circuit.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/retime"
)

// Parsed is the first artifact: a normalized, structurally valid circuit.
// Normalization (deriving the fanout lists) happens exactly once here, and
// netlist.Circuit.Validate is a pure checker, so the wrapped circuit is
// safe to share read-only across any number of concurrent compilations.
type Parsed struct {
	c *netlist.Circuit

	// ParseTime records what loading and normalizing the circuit cost
	// when Parse built this artifact (zero from NewParsed or a decode).
	ParseTime time.Duration

	keyOnce sync.Once
	key     string

	lintOnce  sync.Once
	lintDiags []lint.Diagnostic
}

// NewParsed normalizes and validates the circuit and wraps it as the
// pipeline's root artifact. The circuit must not be mutated afterwards.
func NewParsed(c *netlist.Circuit) (*Parsed, error) {
	if c == nil {
		return nil, errors.New("core: nil circuit")
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return &Parsed{c: c}, nil
}

// Parse loads the named circuit through load and wraps it as the root
// artifact, timing both steps as the parse phase (ParseTime). Errors are
// returned unwrapped: they name the circuit source, not a pipeline step.
func Parse(ctx context.Context, name string, load func(string) (*netlist.Circuit, error)) (*Parsed, error) {
	stop := startPhase(ctx, phaseParse, name)
	c, err := load(name)
	if err != nil {
		stop()
		return nil, err
	}
	p, err := NewParsed(c)
	if d := stop(); p != nil {
		p.ParseTime = d
	}
	return p, err
}

// Circuit returns the normalized circuit. Treat it as read-only.
func (p *Parsed) Circuit() *netlist.Circuit { return p.c }

// Key returns the artifact's content key: a SHA-256 of the canonical .bench
// serialisation, so two circuits with identical structure share a key
// regardless of how they were loaded. Computed lazily and memoized — the
// one-shot Compile path never pays for it.
func (p *Parsed) Key() string {
	p.keyOnce.Do(func() {
		h := sha256.New()
		if err := p.c.WriteBench(h); err != nil {
			// WriteBench over a hasher cannot fail; keep the key usable
			// anyway by falling back to the name.
			p.key = "circuit:!" + p.c.Name
			return
		}
		p.key = "circuit:" + hex.EncodeToString(h.Sum(nil))
	})
	return p.key
}

// AnalyzeKey returns the content key of the Analyzed artifact this circuit
// produces. Analysis is deterministic, so the key adds no parameters.
func (p *Parsed) AnalyzeKey() string { return "analyze(" + p.Key() + ")" }

// NetlistLint runs the netlist-layer design rules once and memoizes the
// diagnostics, so a batch driver gating many jobs on the same circuit lints
// it a single time. The returned slice is a fresh copy each call; callers
// may append to it freely.
func (p *Parsed) NetlistLint() []lint.Diagnostic {
	p.lintOnce.Do(func() {
		p.lintDiags = lint.RunLayer(lint.CircuitContext(p.c), lint.LayerNetlist)
	})
	return append([]lint.Diagnostic(nil), p.lintDiags...)
}

// Analyzed is the second artifact: the multi-pin graph plus its strongly
// connected components (Table 2 STEPs 1-2). Like every artifact it is
// immutable after construction; the reachability queries downstream phases
// run against the graph are read-only.
type Analyzed struct {
	parsed *Parsed
	g      *graph.G
	scc    *graph.SCCInfo
	key    string

	// GraphTime and SCCTime record what the two analysis phases cost when
	// this artifact was built (informational; a cache hit costs nothing).
	GraphTime time.Duration
	SCCTime   time.Duration
}

// Analyze builds the graph and SCC artifact for a parsed circuit.
func Analyze(ctx context.Context, p *Parsed) (*Analyzed, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		return nil, errors.New("core: nil parsed artifact")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: building graph: %w", err)
	}
	stop := startPhase(ctx, phaseGraph, p.c.Name)
	g, err := graph.FromCircuit(p.c)
	graphTime := stop()
	if err != nil {
		return nil, fmt.Errorf("core: building graph: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: SCC: %w", err)
	}
	stop = startPhase(ctx, phaseSCC, p.c.Name)
	scc := g.SCC()
	sccTime := stop()
	return &Analyzed{
		parsed: p, g: g, scc: scc, key: p.AnalyzeKey(),
		GraphTime: graphTime, SCCTime: sccTime,
	}, nil
}

// Parsed returns the upstream artifact.
func (a *Analyzed) Parsed() *Parsed { return a.parsed }

// Graph returns the circuit graph. Treat it as read-only.
func (a *Analyzed) Graph() *graph.G { return a.g }

// SCC returns the strongly-connected-component analysis.
func (a *Analyzed) SCC() *graph.SCCInfo { return a.scc }

// Key returns the artifact's deterministic content key.
func (a *Analyzed) Key() string { return a.key }

// SaturateKey returns the content key of the Saturated artifact this
// analysis would produce under cfg — the first key with stochastic inputs
// (the seed and flow parameters).
func (a *Analyzed) SaturateKey(cfg flow.Config) string {
	return fmt.Sprintf("saturate(%s|b=%g,mv=%d,alpha=%g,delta=%g,seed=%d,policy=%d,maxiter=%d)",
		a.key, cfg.Capacity, cfg.MinVisit, cfg.Alpha, cfg.Delta, cfg.Seed, cfg.Policy, cfg.MaxIterations)
}

// Saturated is the third artifact: the probabilistic multicommodity-flow
// congestion state of Table 3, fully determined by (circuit, flow.Config).
// It is the deepest artifact shared across a sweep's jobs — everything
// after it depends on l_k and β.
type Saturated struct {
	analyzed *Analyzed
	cfg      flow.Config
	res      *flow.Result
	key      string

	// SaturateTime records the Dijkstra saturation cost at build time.
	SaturateTime time.Duration
}

// SaturateNetwork runs Saturate_Network over an analyzed circuit with cfg
// (Options.FlowConfig gives the paper's), which is captured in the key.
func SaturateNetwork(ctx context.Context, a *Analyzed, cfg flow.Config) (*Saturated, error) {
	if a == nil {
		return nil, errors.New("core: nil analyzed artifact")
	}
	stop := startPhase(ctx, phaseSaturate, a.parsed.c.Name)
	fres, err := flow.Saturate(ctx, a.g, cfg)
	saturateTime := stop()
	if err != nil {
		return nil, fmt.Errorf("core: saturate network: %w", err)
	}
	return &Saturated{
		analyzed: a, cfg: cfg, res: fres, key: a.SaturateKey(cfg),
		SaturateTime: saturateTime,
	}, nil
}

// Analyzed returns the upstream artifact.
func (s *Saturated) Analyzed() *Analyzed { return s.analyzed }

// Parsed returns the root artifact.
func (s *Saturated) Parsed() *Parsed { return s.analyzed.parsed }

// Circuit returns the normalized circuit. Treat it as read-only.
func (s *Saturated) Circuit() *netlist.Circuit { return s.analyzed.parsed.c }

// Graph returns the circuit graph. Treat it as read-only.
func (s *Saturated) Graph() *graph.G { return s.analyzed.g }

// SCC returns the strongly-connected-component analysis.
func (s *Saturated) SCC() *graph.SCCInfo { return s.analyzed.scc }

// Flow returns the saturation result. Treat it as read-only; stages that
// consume the distance vector destructively copy it first.
func (s *Saturated) Flow() *flow.Result { return s.res }

// Config returns the resolved flow configuration the artifact was built
// with.
func (s *Saturated) Config() flow.Config { return s.cfg }

// Key returns the artifact's deterministic content key.
func (s *Saturated) Key() string { return s.key }

// PartitionKey returns the content key of the Partitioned artifact opt
// would produce from this saturation — the point where l_k, β and the
// clustering knobs enter the pipeline.
func (s *Saturated) PartitionKey(opt Options) string {
	beta := opt.Beta
	if beta < 1 {
		beta = 1
	}
	return fmt.Sprintf("partition(%s|lk=%d,beta=%d,skip=%t,refine=%d,locked=%s)",
		s.key, opt.LK, beta, opt.SkipAssign, opt.RefinePasses, lockedKey(opt.Locked))
}

// lockedKey renders the locked-node set deterministically (sorted IDs).
func lockedKey(locked map[int]bool) string {
	if len(locked) == 0 {
		return "-"
	}
	ids := make([]int, 0, len(locked))
	for v, on := range locked {
		if on {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	var sb strings.Builder
	for i, v := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}

// Partitioned is the fourth artifact: the Make_Group clustering and the
// Assign_CBIT merge/refine passes (Table 2 STEPs 3b-3c) under one (l_k, β)
// coordinate.
type Partitioned struct {
	saturated *Saturated
	part      *partition.Result
	merges    []partition.MergeTrace
	key       string

	// GroupTime and AssignTime record the phase costs at build time
	// (AssignTime is zero under SkipAssign).
	GroupTime  time.Duration
	AssignTime time.Duration
}

// MakePartition clusters a saturated circuit under opt's input constraint
// and budget. The Saturated distances are copied before the SCC-budget rule
// consumes them, so the upstream artifact stays pristine.
func MakePartition(ctx context.Context, s *Saturated, opt Options) (*Partitioned, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return nil, errors.New("core: nil saturated artifact")
	}
	if opt.Beta < 1 {
		opt.Beta = 1
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: make group: %w", err)
	}
	name := s.analyzed.parsed.c.Name
	stop := startPhase(ctx, phaseGroup, name)
	d := append([]float64(nil), s.res.D...)
	pres, err := partition.MakeGroup(s.analyzed.g, s.analyzed.scc, d,
		partition.Options{LK: opt.LK, Beta: opt.Beta, Locked: opt.Locked})
	groupTime := stop()
	if err != nil {
		return nil, fmt.Errorf("core: make group: %w", err)
	}

	var merges []partition.MergeTrace
	var assignTime time.Duration
	if !opt.SkipAssign {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: assign CBIT: %w", err)
		}
		stop = startPhase(ctx, phaseAssign, name)
		merges, err = partition.AssignCBIT(pres, opt.LK)
		if err == nil && opt.RefinePasses > 0 {
			partition.Refine(pres, opt.LK, opt.RefinePasses)
		}
		assignTime = stop()
		if err != nil {
			return nil, fmt.Errorf("core: assign CBIT: %w", err)
		}
	}
	return &Partitioned{
		saturated: s, part: pres, merges: merges, key: s.PartitionKey(opt),
		GroupTime: groupTime, AssignTime: assignTime,
	}, nil
}

// Saturated returns the upstream artifact.
func (pt *Partitioned) Saturated() *Saturated { return pt.saturated }

// Partition returns the clustering result. Treat it as read-only.
func (pt *Partitioned) Partition() *partition.Result { return pt.part }

// Merges returns the Assign_CBIT merge trace.
func (pt *Partitioned) Merges() []partition.MergeTrace { return pt.merges }

// Key returns the artifact's deterministic content key.
func (pt *Partitioned) Key() string { return pt.key }

// PriceKey returns the content key of the Priced artifact built from this
// partition: pricing takes no parameters of its own.
func (pt *Partitioned) PriceKey() string { return "price(" + pt.key + ")" }

// Priced is the final artifact: the Leiserson-Saxe retiming solution plus
// the Table 10-12 area accounting it prices.
type Priced struct {
	partitioned *Partitioned
	retiming    *retime.Solution
	combGraph   *retime.CombGraph
	areas       AreaReport
	key         string

	// RetimeTime records the solver cost at build time.
	RetimeTime time.Duration
}

// Price runs the retiming solver on the partition's cut nets and prices
// the CBIT hardware with its covered/demoted split. opt carries no pricing
// parameters; it is accepted so every stage driver has the same shape.
func Price(ctx context.Context, pt *Partitioned, opt Options) (*Priced, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pt == nil {
		return nil, errors.New("core: nil partitioned artifact")
	}
	s := pt.saturated
	stop := startPhase(ctx, phaseRetime, s.analyzed.parsed.c.Name)
	sol, cg, err := solveRetiming(ctx, s.analyzed.g, pt.part, s.res)
	retimeTime := stop()
	if err != nil {
		return nil, fmt.Errorf("core: retiming solver: %w", err)
	}
	return &Priced{
		partitioned: pt, retiming: sol, combGraph: cg, key: pt.PriceKey(),
		areas:      priceAreas(s.Circuit(), s.analyzed.g, s.analyzed.scc, pt.part, sol),
		RetimeTime: retimeTime,
	}, nil
}

// Partitioned returns the upstream artifact.
func (pr *Priced) Partitioned() *Partitioned { return pr.partitioned }

// Retiming returns the solver solution.
func (pr *Priced) Retiming() *retime.Solution { return pr.retiming }

// CombGraph returns the retiming graph the solution was solved on.
func (pr *Priced) CombGraph() *retime.CombGraph { return pr.combGraph }

// Areas returns the Table 10-12 area accounting.
func (pr *Priced) Areas() AreaReport { return pr.areas }

// Key returns the artifact's deterministic content key.
func (pr *Priced) Key() string { return pr.key }

// CompileFrom finishes a compilation from a (possibly shared, possibly
// cached) Saturated artifact: it is Compile with the parse/analyze/saturate
// prefix already done. The netlist lint gate uses the Parsed artifact's
// memoized diagnostics, so gating N jobs on one circuit lints it once.
// Result.Phases reports only the work this call performed — the shared
// prefix phases stay zero.
func CompileFrom(ctx context.Context, s *Saturated, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return nil, errors.New("core: nil saturated artifact")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Beta < 1 {
		opt.Beta = 1
	}
	start := time.Now()
	var lintDiags []lint.Diagnostic
	if opt.Lint {
		lintDiags = s.Parsed().NetlistLint()
		if lint.HasAtLeast(lintDiags, lint.Error) {
			return &Result{Circuit: s.Circuit(), Lint: lintDiags}, &LintError{Stage: "netlist", Diags: lintDiags}
		}
	}
	res, err := finish(ctx, s, opt, lintDiags)
	if res != nil && err == nil {
		res.Elapsed = time.Since(start)
	}
	return res, err
}

// finish runs the per-job suffix of the pipeline — partition, price, and
// the artifact-layer lint gate — and assembles the Result.
func finish(ctx context.Context, s *Saturated, opt Options, lintDiags []lint.Diagnostic) (*Result, error) {
	pt, err := MakePartition(ctx, s, opt)
	if err != nil {
		return nil, err
	}
	pr, err := Price(ctx, pt, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:   s.Circuit(),
		Graph:     s.analyzed.g,
		SCC:       s.analyzed.scc,
		Flow:      s.res,
		Partition: pt.part,
		Merges:    pt.merges,
		Retiming:  pr.retiming,
		CombGraph: pr.combGraph,
		Areas:     pr.areas,
	}
	res.Phases = Phases{Group: pt.GroupTime, Assign: pt.AssignTime, Retime: pr.RetimeTime}
	res.Counters = collectCounters(s, pt, pr)

	// The artifact-layer lint gate: a violated partition invariant or an
	// illegal retiming here means the area figures are fiction.
	if opt.Lint {
		lctx := &lint.Context{
			File: res.Circuit.Name, Circuit: res.Circuit, Graph: res.Graph, SCC: res.SCC,
			Partition: res.Partition, Retiming: res.Retiming, CombGraph: res.CombGraph,
			LK: opt.LK, Beta: opt.Beta,
		}
		diags := lint.RunLayer(lctx, lint.LayerPartition)
		res.Lint = append(lintDiags, diags...)
		if lint.HasAtLeast(diags, lint.Error) {
			return res, &LintError{Stage: "partition", Diags: diags}
		}
	}
	return res, nil
}
