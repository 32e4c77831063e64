package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/fault"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is BENCHMARK.json at the repository root.
const benchmarkFile = "../BENCHMARK.json"

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpecFile(t *testing.T) *specFile {
	t.Helper()
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s specFile
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return &s
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s := readSpecFile(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q) does not match %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	unit := func(defs []metricDef) map[string]string {
		m := make(map[string]string)
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	e2e, layer := unit(endToEnd), unit(perLayer)
	if len(s.EndToEnd) != len(e2e) || len(s.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code %d+%d", len(s.EndToEnd), len(s.PerLayer), len(e2e), len(layer))
	}
	seen := make(map[string]bool)
	check := func(name, u, better string, want map[string]string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is invalid or repeated", name)
		}
		seen[name] = true
		if want[name] != u {
			t.Errorf("metric %q: unit %q in BENCHMARK.json, %q in the code", name, u, want[name])
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better = %q", name, better)
		}
	}
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit, m.Better, e2e)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit, m.Better, layer)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestQuickWorkloads runs every workload's code path, untraced and traced,
// on small circuits, at two seeds.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				d, res, tr, err := run(context.Background(), runConfig{w: w, seed: seed,
					seconds: 50 * time.Millisecond, trace: traced, quick: true})
				if err != nil {
					t.Fatalf("%s seed %d trace %t: %v", w.name, seed, traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("%s seed %d trace %t: %+v, errors %v", w.name, seed, traced, res, d.Errors)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(want))
				}
				for _, def := range want {
					m, ok := res.Metrics[def.name]
					if !ok || m.Unit != def.unit {
						t.Errorf("%s: metric %q = %+v, want unit %q", w.name, def.name, m, def.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q = %g, want > 0", w.name, def.name, m.Value)
					}
				}
				if traced {
					if tr.layers().Ops == 0 {
						t.Errorf("%s: traced run recorded no op spans", w.name)
					}
					if err := tr.write(t.TempDir()); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
}

func TestInputSeeds(t *testing.T) {
	for _, c := range []struct {
		seed int64
		n    int
		want []int64
	}{
		{1, 4, []int64{1, 2, 3, 4}},
		{2, 4, []int64{5, 6, 7, 8}},
		{3, 1, []int64{3}},
	} {
		if got := inputSeeds(c.seed, c.n); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("inputSeeds(%d, %d) = %v, want %v", c.seed, c.n, got, c.want)
		}
	}
}

func TestCheckCompileRejectsCorruption(t *testing.T) {
	w, _ := workloadByName("compile")
	c, err := bench89.Load(w.quick.circuits[0])
	if err != nil {
		t.Fatal(err)
	}
	lk := w.quick.lks[0]
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(lk, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCompile(r.Partition, r.Areas, r.Retiming, r.CombGraph, lk); err != nil {
		t.Fatalf("clean compile rejected: %v", err)
	}

	areas := r.Areas
	areas.CoveredCuts++
	if checkCompile(r.Partition, areas, r.Retiming, r.CombGraph, lk) == nil {
		t.Error("covered + excess != cut nets accepted")
	}
	if checkCompile(r.Partition, r.Areas, r.Retiming, r.CombGraph, r.Partition.MaxInputs()-1) == nil {
		t.Error("cluster over l_k accepted")
	}

	if len(r.CombGraph.Edges) == 0 {
		t.Fatal("retiming graph has no edges")
	}
	sol := *r.Retiming
	sol.Rho = append([]int(nil), sol.Rho...)
	e := r.CombGraph.Edges[0]
	sol.Rho[e.From] = sol.Rho[e.To] + e.W + 1 // retimed weight -1
	if checkCompile(r.Partition, r.Areas, &sol, r.CombGraph, lk) == nil {
		t.Error("illegal retiming accepted")
	}

	cl := r.Partition.Clusters[0]
	v := cl.Nodes[0]
	saved := r.Partition.Assign[v]
	r.Partition.Assign[v] = len(r.Partition.Clusters) // no such cluster
	if checkCompile(r.Partition, r.Areas, r.Retiming, r.CombGraph, lk) == nil {
		t.Error("invalid partition accepted")
	}
	r.Partition.Assign[v] = saved
}

func TestCheckCoverRejectsCorruption(t *testing.T) {
	w, _ := workloadByName("cover")
	c, err := bench89.Load(w.quick.circuits[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(w.quick.lks[0], 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fault.Campaign(context.Background(), r.Circuit, r.Partition,
		fault.CampaignOptions{Seed: 1, Workers: workers, Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCover(rep); err != nil {
		t.Fatalf("clean campaign rejected: %v", err)
	}
	rep.Segments[0].Detected = rep.Segments[0].Total + 1
	if checkCover(rep) == nil {
		t.Error("segment detecting more faults than it has accepted")
	}
	rep.Segments[0].Detected = 0
	rep.Detected = rep.Total + 1
	if checkCover(rep) == nil {
		t.Error("campaign detecting more faults than it has accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1}, {1, 0.95, 1},
		{2, 0.5, 1}, {2, 0.95, 2},
		{3, 0.5, 2}, {3, 0.95, 3}, {3, 0.34, 2}, {3, 0.33, 1},
		{20, 0.5, 10}, {20, 0.95, 19}, {20, 0.9, 18}, {20, 1, 20},
		{300, 0.5, 150}, {300, 0.95, 285}, {300, 0.99, 297}, {300, 0.999, 300},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{3, 0, false}, {20, 0, false}, {100, 0.9, true}, {200, 0.95, true}, {300, 0.95, true}, {1000, 0.99, true}} {
		if q, ok := tailQuantile(c.n); q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g, %t; want %g, %t", c.n, q, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	a := []float64{10, 10.2, 9.9, 10.1, 10}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", []float64{10.1, 9.9, 10, 10.2, 10}, true, 0.1, "unchanged"},
		{"slower", []float64{12, 12.1, 11.9, 12, 12.2}, true, 0.1, "regressed"},
		{"faster", []float64{8, 8.1, 7.9, 8, 8.2}, true, 0.1, "improved"},
		{"higher is better", []float64{8, 8.1, 7.9, 8, 8.2}, false, 0.1, "regressed"},
		{"noisy A", []float64{10, 10, 10, 10, 10}, true, 0.001, "unresolved"},
		{"noisy A, every B better", []float64{9, 9, 9, 9, 9}, true, 0.001, "improved"},
		{"within noise", []float64{9.9, 10.1, 9.95, 10, 10.05}, true, 0.1, "unchanged"},
	} {
		if got := compareMetric(a, c.b, c.lower, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRunOutput(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloadByName("compile")
	var paths []string
	for i := 0; i < 2; i++ {
		d, res, _, err := run(context.Background(), runConfig{w: w, seed: 1, seconds: 10 * time.Millisecond, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, v := range []any{d, res} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"-benchmark", benchmarkFile, paths[0], "--", paths[1]}, &out, &out); code != 0 {
		t.Fatalf("compare exited %d:\n%s", code, out.String())
	}
	for _, m := range endToEnd {
		if !strings.Contains(out.String(), m.name+" ("+m.unit+")") {
			t.Errorf("compare output has no row for %s:\n%s", m.name, out.String())
		}
	}
	if !strings.Contains(out.String(), "error_rate") {
		t.Errorf("compare output has no error_rate row:\n%s", out.String())
	}
}
