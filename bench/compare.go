package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json that compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runRecord is one run read back from its output: the run line and the
// result line that follows it.
type runRecord struct {
	detail detail
	result result
}

// readRuns reads every run in a file of run output (one run's stdout, or
// several concatenated).
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var pending *detail
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		var kind struct {
			Workload *string `json:"workload"`
			Correct  *bool   `json:"correct"`
		}
		if json.Unmarshal(line, &kind) != nil {
			continue // not a run's JSON line
		}
		switch {
		case kind.Workload != nil:
			pending = new(detail)
			if err := json.Unmarshal(line, pending); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
		case kind.Correct != nil:
			if pending == nil {
				return nil, fmt.Errorf("%s:%d: result line without a run line before it", path, n)
			}
			rec := runRecord{detail: *pending}
			if err := json.Unmarshal(line, &rec.result); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
			runs = append(runs, rec)
			pending = nil
		}
	}
	return runs, sc.Err()
}

// side is one side of a comparison: its untraced runs by workload.
type side map[string][]runRecord

func readSide(paths []string) (side, error) {
	s := make(side)
	for _, p := range paths {
		runs, err := readRuns(p)
		if err != nil {
			return nil, err
		}
		for _, r := range runs {
			if !r.detail.Trace {
				s[r.detail.Workload] = append(s[r.detail.Workload], r)
			}
		}
	}
	return s, nil
}

func (s side) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s[workload] {
		if m, ok := r.result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (s side) failures(workload string) (failed, attempted int) {
	for _, r := range s[workload] {
		failed += r.result.Failed
		attempted += r.result.Attempted
	}
	return failed, attempted
}

// comparison is one (workload, end-to-end metric) row of compare.
type comparison struct {
	a, b        [3]float64 // quartiles: q1, median, q3
	wins, pairs int        // pairs B wins, ties counting for neither
	verdict     string
}

// compareMetric applies the rule of the benchmark's method: B regressed when
// its median is worse than A's by more than bound (a share of A's median);
// it improved when it wins at least nine tenths of the pairs and the medians
// differ by more than A's own spread (q3 - q1). When A's spread is wider
// than the bound the answer is unresolved, unless every B run beats every A
// run. Pairs match the i-th run of each side.
func compareMetric(a, b []float64, lowerIsBetter bool, bound float64) comparison {
	var c comparison
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	base := math.Abs(c.a[1])
	worse := c.b[1] - c.a[1] // how much worse B's median reads
	if !lowerIsBetter {
		worse = -worse
	}
	spread := c.a[2] - c.a[0]
	switch {
	case c.pairs == 0 || base == 0:
		c.verdict = "unresolved"
	case spread > bound*base && !allBetter:
		c.verdict = "unresolved"
	case worse > bound*base:
		c.verdict = "regressed"
	case worse < 0 && float64(c.wins) >= 0.9*float64(c.pairs) && -worse > spread:
		c.verdict = "improved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition: each end-to-end metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.jsonl... -- B.jsonl...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var aPaths, bPaths []string
	rest := fs.Args()
	for i, arg := range rest {
		if arg == "--" {
			aPaths, bPaths = rest[:i], rest[i+1:]
			break
		}
	}
	if len(aPaths) == 0 || len(bPaths) == 0 {
		fs.Usage()
		return 2
	}
	if err := compare(*specPath, aPaths, bPaths, stdout); err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	return 0
}

func compare(specPath string, aPaths, bPaths []string, stdout io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readSide(aPaths)
	if err != nil {
		return err
	}
	b, err := readSide(bPaths)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	rows := 0
	for _, w := range spec.Workloads {
		if len(a[w.Name]) == 0 || len(b[w.Name]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			c := compareMetric(a.values(w.Name, m.Name), b.values(w.Name, m.Name), m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n", w.Name, m.Name, m.Unit,
				c.a[1], c.a[0], c.a[2], c.b[1], c.b[0], c.b[2], c.wins, c.pairs, c.verdict)
			rows++
		}
		af, aa := a.failures(w.Name)
		bf, ba := b.failures(w.Name)
		verdict := "unchanged"
		if af*ba != bf*aa {
			verdict = "differs"
		}
		fmt.Fprintf(tw, "%s\terror_rate (failed/attempted)\t%d/%d\t%d/%d\t\t%s\n", w.Name, af, aa, bf, ba, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("no workload has untraced runs on both sides")
	}
	return nil
}
