package main

// The `merced tables` subcommand regenerates every table and figure of the
// paper's evaluation:
//
//	merced tables -table 1    CBIT area cost (Table 1)
//	merced tables -table f4   bit-wise area vs testing time series (Figure 4)
//	merced tables -table f1b  testing time per CBIT width (Figure 1(b))
//	merced tables -table 9    circuit statistics (Table 9)
//	merced tables -table 10   partition results, l_k=16 (Table 10)
//	merced tables -table 11   partition results, l_k=24 (Table 11)
//	merced tables -table 12   CBIT area with/without retiming (Table 12)
//	merced tables -table f8   retiming saving series (Figure 8)
//	merced tables -table sa   flow partitioner vs simulated-annealing baseline
//	merced tables -table pet  conventional PET vs PPET session length
//	merced tables -table stability  cut/saving spread across seeds
//	merced tables -table all  everything above
//
// Use -circuits to restrict to a comma-separated subset and -seed to vary
// the stochastic flow seed. Every compile the selected tables need runs in
// one lint-gated sweep (the -sweep engine with -lint): each (circuit,
// seed) prefix is saturated once for both l_k values, and a compile that
// breaks one of the paper's invariants — a proper partition, every cluster
// within l_k inputs, a legal retiming, covered + excess = cut nets — fails
// its design-rule gate, so the command exits 1 naming the job (`merced
// -lint` on that circuit and l_k lists the findings).
//
// The CPU-seconds column of Tables 10 and 11 is each job's elapsed time in
// that sweep. A shared parse, analyze or saturate stage counts toward the
// job that computed it (DESIGN.md §9), so an l_k = 24 row usually times
// only its own partitioning and retiming, and a job that waits on a stage
// another job is computing counts the wait. -no-timing drops the column,
// so the output is byte-reproducible; results/tables_all.txt is
// `merced tables -table all -no-timing`.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/anneal"
	"repro/internal/bench89"
	"repro/internal/cbit"
	"repro/internal/graph"
	"repro/internal/pet"
	"repro/internal/report"
	"repro/internal/sweep"
)

// tableOrder lists every -table value in the order -table all prints them.
var tableOrder = []string{"1", "f4", "f1b", "9", "10", "11", "12", "f8", "sa", "stability", "pet"}

// Circuit subsets of the extension tables: the simulated-annealing
// comparison runs below area 1300, the PET and stability tables below 2300.
const (
	saMaxArea  = 1300
	petMaxArea = 2300
)

// runTables renders the selected tables. Exit codes: 0 on success, 1 when
// a circuit does not load or a job fails, 2 on a usage error (a bad flag,
// an unknown -table, a stray argument).
func runTables(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merced tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table/figure to regenerate ("+strings.Join(tableOrder, ", ")+", all)")
	circuits := fs.String("circuits", "", "comma-separated circuit subset (default: the paper's list)")
	seed := fs.Int64("seed", 1, "random seed for Saturate_Network")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	noTiming := fs.Bool("no-timing", false, "omit the CPU-seconds column for byte-reproducible output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "merced tables: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected := tableOrder
	if *table != "all" {
		if !slices.Contains(tableOrder, *table) {
			fmt.Fprintf(stderr, "merced tables: unknown -table %q\n", *table)
			return 2
		}
		selected = []string{*table}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced tables:", err)
		return 1
	}

	tb := &tables{sel: splitList(*circuits), seed: *seed, noTiming: *noTiming, cache: sweep.NewCache()}
	if *circuits == "" {
		tb.sel = specNames(bench89.Specs)
	}
	ctx := context.Background()
	if err := tb.compile(ctx, selected); err != nil {
		return fail(err)
	}
	for _, name := range selected {
		t, err := tb.render(ctx, name, stdout)
		if err != nil {
			return fail(err)
		}
		if t == nil {
			continue // a figure, printed as a series
		}
		if *csv {
			err = t.WriteCSV(stdout)
		} else {
			err = t.Write(stdout)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// tables holds one run's settings and, after compile, its sweep results.
type tables struct {
	sel      []string
	seed     int64
	noTiming bool
	// cache serves the sweep and, afterwards, the graphs of the SA and PET
	// tables from the same prefixes.
	cache *sweep.Cache
	jobs  map[sweep.Job]*sweep.JobResult
}

// job is the sweep coordinate of one compile at the paper's β.
func job(circuit string, lk int, seed int64) sweep.Job {
	return sweep.Job{Circuit: circuit, LK: lk, Beta: 50, Seed: seed}
}

// compile runs the union of the jobs the selected tables need as one
// lint-gated sweep. The first failed job fails the run.
func (tb *tables) compile(ctx context.Context, selected []string) error {
	var jobs []sweep.Job
	seen := map[sweep.Job]bool{}
	add := func(names []string, lk int, seeds ...int64) {
		for _, name := range names {
			for _, seed := range seeds {
				if j := job(name, lk, seed); !seen[j] {
					seen[j] = true
					jobs = append(jobs, j)
				}
			}
		}
	}
	for _, name := range selected {
		switch name {
		case "10":
			add(tb.sel, 16, tb.seed)
		case "11":
			add(sel24(tb.sel), 24, tb.seed)
		case "12", "f8":
			add(tb.sel, 16, tb.seed)
			add(tb.sel, 24, tb.seed)
		case "sa":
			add(specNames(bench89.SmallSpecs(saMaxArea)), 16, tb.seed)
		case "pet":
			add(specNames(bench89.SmallSpecs(petMaxArea)), 16, tb.seed)
		case "stability":
			add(specNames(bench89.SmallSpecs(petMaxArea)), 16, 1, 2, 3, 4, 5)
		}
	}
	rep, err := sweep.Run(ctx, jobs, sweep.Config{Lint: true, Cache: tb.cache})
	if err != nil {
		return err
	}
	if err := rep.FirstErr(); err != nil {
		return err
	}
	tb.jobs = make(map[sweep.Job]*sweep.JobResult, len(rep.Jobs))
	for i := range rep.Jobs {
		tb.jobs[rep.Jobs[i].Job] = &rep.Jobs[i]
	}
	return nil
}

// result returns the sweep's outcome for one job compile scheduled.
func (tb *tables) result(circuit string, lk int, seed int64) *sweep.JobResult {
	return tb.jobs[job(circuit, lk, seed)]
}

// render builds the named table, or prints the named figure to w and
// returns a nil table.
func (tb *tables) render(ctx context.Context, name string, w io.Writer) (*report.Table, error) {
	switch name {
	case "1":
		return table1(), nil
	case "f4":
		figure4(w)
	case "f1b":
		figure1b(w)
	case "9":
		return table9(tb.sel)
	case "10":
		return tb.table1011(tb.sel, 16), nil
	case "11":
		return tb.table1011(sel24(tb.sel), 24), nil
	case "12":
		return tb.table12(), nil
	case "f8":
		tb.figure8(w)
	case "sa":
		return tb.tableSA(ctx)
	case "stability":
		return tb.tableStability(), nil
	case "pet":
		return tb.tablePET(ctx)
	}
	return nil, nil
}

func specNames(specs []bench89.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// sel24 restricts to the circuits the paper reports for l_k=24 (Table 11).
func sel24(sel []string) []string {
	paper := []string{"s641", "s713", "s5378", "s9234.1", "s13207.1", "s13207",
		"s15850.1", "s35932", "s38417", "s38584.1"}
	var out []string
	for _, n := range sel {
		if slices.Contains(paper, n) {
			out = append(out, n)
		}
	}
	return out
}

func table1() *report.Table {
	t := report.NewTable("Table 1: Area Cost for Various CBIT Sizes",
		"CBIT Type", "CBIT Length", "Area/DFF (p_k)", "p_k/Bit (sigma_k)")
	for _, r := range cbit.Table1() {
		t.AddRowf(r.Type, r.Length, r.AreaDFF, r.PerBit)
	}
	return t
}

func figure4(w io.Writer) {
	var x, area, time []float64
	for _, width := range cbit.StandardWidths {
		x = append(x, float64(width))
		area = append(area, cbit.AreaPerBit(width))
		time = append(time, cbit.TestingTime(width))
	}
	fmt.Fprintln(w, "Figure 4: Bit-wise Area vs. Testing Time for Various CBIT Types")
	_ = report.WriteSeries(w, "cbit_length", report.Series{Name: "area_per_bit", X: x, Y: area},
		report.Series{Name: "testing_time_cycles", X: x, Y: time})
	fmt.Fprintln(w)
}

func figure1b(w io.Writer) {
	var x, y []float64
	for width := 4; width <= 32; width += 4 {
		x = append(x, float64(width))
		y = append(y, cbit.TestingTime(width))
	}
	fmt.Fprintln(w, "Figure 1(b): Testing time T_CBIT dominated by the widest CBIT in each pipe")
	_ = report.WriteSeries(w, "widest_cbit_bits", report.Series{Name: "t_cbit_cycles", X: x, Y: y})
	fmt.Fprintln(w)
}

// table9 needs no compile: it loads each circuit through the resolver the
// sweep uses and reports its statistics.
func table9(sel []string) (*report.Table, error) {
	t := report.NewTable("Table 9: Circuit Information of Selected ISCAS89 Benchmark Circuits (synthetic suite)",
		"Circuit", "PIs", "DFFs", "Gates", "INVs", "Area", "PaperArea")
	for _, name := range sel {
		c, err := sweep.LoadCircuit(name)
		if err != nil {
			return nil, err
		}
		st := c.Stats()
		paper := 0.0
		if sp, ok := bench89.SpecByName(name); ok {
			paper = sp.Area
		}
		t.AddRowf(name, st.PIs, st.DFFs, st.Gates, st.Inverters, st.Area, paper)
	}
	return t, nil
}

func (tb *tables) table1011(sel []string, lk int) *report.Table {
	headers := []string{"Circuit", "DFFs", "DFFs on SCC", "cut nets on SCC", "nets cut", "CPU time (s)"}
	if tb.noTiming {
		headers = headers[:len(headers)-1]
	}
	t := report.NewTable(fmt.Sprintf("Table %d: Partition Results for l_k = %d", 10+(lk-16)/8, lk), headers...)
	for _, name := range sel {
		r := tb.result(name, lk, tb.seed)
		row := []any{name, r.Areas.DFFs, r.Areas.DFFsOnSCC, r.Areas.CutNetsOnSCC, r.Areas.CutNets}
		if !tb.noTiming {
			row = append(row, r.Elapsed.Seconds())
		}
		t.AddRowf(row...)
	}
	return t
}

func (tb *tables) table12() *report.Table {
	t := report.NewTable("Table 12: CBIT Area Comparison for l_k = 16 and l_k = 24 (A_CBIT/A_Total %)",
		"Circuit", "lk16 w/ retime", "lk16 w/o", "lk24 w/ retime", "lk24 w/o")
	for _, name := range tb.sel {
		a16, a24 := tb.result(name, 16, tb.seed).Areas, tb.result(name, 24, tb.seed).Areas
		t.AddRowf(name, a16.RatioRetimed, a16.RatioNonRetimed, a24.RatioRetimed, a24.RatioNonRetimed)
	}
	return t
}

func (tb *tables) figure8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Comparison between PPET with/without Retiming (saving in percentage points)")
	var x, y16, y24 []float64
	for i, name := range tb.sel {
		x = append(x, float64(i))
		y16 = append(y16, tb.result(name, 16, tb.seed).Areas.Saving())
		y24 = append(y24, tb.result(name, 24, tb.seed).Areas.Saving())
		fmt.Fprintf(w, "# %d = %s\n", i, name)
	}
	_ = report.WriteSeries(w, "circuit_index",
		report.Series{Name: "saving_lk16_pct", X: x, Y: y16},
		report.Series{Name: "saving_lk24_pct", X: x, Y: y24})
	fmt.Fprintln(w)
}

// graph returns a small circuit's graph, which a JobResult does not carry,
// by compiling its l_k=16 job again through the sweep's cache: the prefix
// hits, so only partitioning and pricing run again.
func (tb *tables) graph(ctx context.Context, name string) (*graph.G, error) {
	r, err := tb.cache.Compile(ctx, name, nil, job(name, 16, tb.seed).Options())
	if err != nil {
		return nil, err
	}
	return r.Graph, nil
}

// tableSA compares the flow-based partitioner against the authors' earlier
// simulated-annealing approach (the paper's reference [4]) on the small
// circuits: cut nets under the same l_k=16 constraint.
func (tb *tables) tableSA(ctx context.Context) (*report.Table, error) {
	t := report.NewTable("Baseline: flow-based partitioning (Merced) vs. simulated annealing (ref [4]), l_k=16",
		"Circuit", "flow cuts", "flow maxIn", "SA cuts", "SA maxIn", "SA violations")
	for _, name := range specNames(bench89.SmallSpecs(saMaxArea)) {
		jr := tb.result(name, 16, tb.seed)
		g, err := tb.graph(ctx, name)
		if err != nil {
			return nil, err
		}
		sa, err := anneal.Partition(g, anneal.Options{LK: 16, Seed: tb.seed, NumClusters: jr.Clusters})
		if err != nil {
			return nil, err
		}
		t.AddRowf(name, jr.Areas.CutNets, jr.MaxInputs, sa.CutNets, sa.MaxInputs, sa.Violations)
	}
	return t, nil
}

// tablePET compares conventional pseudo-exhaustive testing (Wu-style
// per-cone sessions, the paper's ref [7]) against PPET: cone statistics
// and session lengths vs. the pipelined 2^l_k bound.
func (tb *tables) tablePET(ctx context.Context) (*report.Table, error) {
	t := report.NewTable("Conventional PET vs PPET session length, kappa = l_k = 16",
		"Circuit", "cones", "max cone", "infeasible", "PET serial", "PET merged", "PPET (2^16)")
	for _, name := range specNames(bench89.SmallSpecs(petMaxArea)) {
		g, err := tb.graph(ctx, name)
		if err != nil {
			return nil, err
		}
		a, err := pet.Analyze(g, 16)
		if err != nil {
			return nil, err
		}
		t.AddRowf(name, len(a.Cones), a.MaxWidth, a.Infeasible,
			a.SerialTime, a.MergedTime, cbit.TestingTime(16))
	}
	return t, nil
}

// tableStability quantifies the stochastic spread of Saturate_Network: the
// same circuit compiled under five seeds, reporting the cut-count range and
// retiming-saving range. The paper publishes single-run numbers; this table
// shows how much the probabilistic flow matters.
func (tb *tables) tableStability() *report.Table {
	t := report.NewTable("Stability: cut nets and retiming saving across seeds 1-5, l_k=16",
		"Circuit", "cuts min", "cuts mean", "cuts max", "saving min", "saving mean", "saving max")
	for _, name := range specNames(bench89.SmallSpecs(petMaxArea)) {
		var cuts, savings []float64
		for seed := int64(1); seed <= 5; seed++ {
			a := tb.result(name, 16, seed).Areas
			cuts = append(cuts, float64(a.CutNets))
			savings = append(savings, a.Saving())
		}
		cMin, cMean, cMax := stats(cuts)
		sMin, sMean, sMax := stats(savings)
		t.AddRowf(name, cMin, cMean, cMax, sMin, sMean, sMax)
	}
	return t
}

func stats(xs []float64) (min, mean, max float64) {
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean /= float64(len(xs))
	return min, mean, max
}
