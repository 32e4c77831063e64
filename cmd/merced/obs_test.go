package main

// CLI-level observability contract tests: the golden fixtures must stay
// byte-identical with tracing and progress enabled, -metrics must change
// only the documented report fields, the exported trace file must be valid
// Chrome trace_event JSON with per-pool worker lanes, and pprof profiling
// must compose with lint mode.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var goldenMatrix = sweepRun{
	circuits: "small,s1423",
	lks:      "16,24",
	betas:    "25,50,100",
	seeds:    "1,2",
	noTiming: true,
}

// The zero-perturbation guarantee, end to end: the golden sweep renderings
// survive byte-for-byte with a live trace recorder, a debug logger, and the
// progress line all enabled. (-metrics is also on for CSV, which never
// carries metrics.)
func TestGoldenByteIdenticalWithObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is a few seconds of compute")
	}
	for _, tc := range []struct {
		format  string
		golden  string
		metrics bool
	}{
		{"csv", "sweep_prefix_matrix.csv", true},
		{"json", "sweep_prefix_matrix.json", false},
	} {
		t.Run(tc.format, func(t *testing.T) {
			want := readGolden(t, tc.golden)
			rec := obs.NewRecorder()
			ctx := obs.With(context.Background(), rec, 0)
			var logBuf bytes.Buffer
			logger, err := obs.NewLogger(&logBuf, "debug", "json")
			if err != nil {
				t.Fatal(err)
			}
			ctx = obs.WithLogger(ctx, logger)

			cfg := goldenMatrix
			cfg.format = tc.format
			cfg.metrics = tc.metrics
			cfg.progress = true
			var out, errBuf bytes.Buffer
			if code := runSweep(ctx, cfg, &out, &errBuf); code != 0 {
				t.Fatalf("runSweep exit %d: %s", code, errBuf.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s output diverged from golden with observability enabled", tc.format)
			}
			if rec.Len() == 0 {
				t.Error("recorder saw no spans")
			}
			if !strings.Contains(errBuf.String(), "jobs") || !strings.Contains(errBuf.String(), "\r") {
				t.Error("progress line missing from stderr")
			}
			if strings.Contains(out.String(), "\r") {
				t.Error("progress leaked into stdout")
			}
			if !strings.Contains(logBuf.String(), "sweep job done") {
				t.Error("debug log missing job records")
			}
		})
	}
}

// -metrics on JSON adds exactly the "metrics" object: jobs and stats stay
// structurally identical to the golden fixture.
func TestGoldenJSONWithMetricsStructural(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is a few seconds of compute")
	}
	cfg := goldenMatrix
	cfg.format = "json"
	cfg.metrics = true
	var out, errBuf bytes.Buffer
	if code := runSweep(context.Background(), cfg, &out, &errBuf); code != 0 {
		t.Fatalf("runSweep exit %d: %s", code, errBuf.String())
	}
	var got, want map[string]any
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readGolden(t, "sweep_prefix_matrix.json"), &want); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs", "stats"} {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Errorf("%q diverged from golden under -metrics", key)
		}
	}
	metrics, ok := got["metrics"].(map[string]any)
	if !ok {
		t.Fatal("JSON report missing the \"metrics\" object")
	}
	jobs, _ := got["jobs"].([]any)
	counters, ok := metrics["counters"].(map[string]any)
	if !ok || counters["sweep.jobs"] != float64(len(jobs)) {
		t.Errorf("metrics.counters.sweep.jobs = %v, want %d", counters["sweep.jobs"], len(jobs))
	}
}

// The trace file written by -trace is a loadable trace_event JSON array:
// metadata names the process and every lane, complete events carry
// nondecreasing timestamps per lane, and both pool flavours show up as
// distinct worker lanes.
func TestTraceFileSchema(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec, 0)

	var out, errBuf bytes.Buffer
	code := runSweep(ctx, sweepRun{
		circuits: "s27,s510", lks: "8,16", betas: "50", seeds: "1",
		workers: 4, format: "csv", noTiming: true,
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("runSweep exit %d: %s", code, errBuf.String())
	}
	out.Reset()
	code = runCover(ctx, coverRun{
		circuit: "s510", lk: 8, beta: 50, seed: 1, workers: 4,
		format: "csv", noTiming: true, cache: sweep.NewCache(),
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("runCover exit %d: %s", code, errBuf.String())
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	lanes := map[string]bool{}
	lastTS := map[int]float64{}
	spans := 0
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				lanes[e.Args["name"].(string)] = true
			}
		case "X":
			spans++
			if e.TS < lastTS[e.TID] {
				t.Fatalf("lane %d timestamps regress: %v after %v", e.TID, e.TS, lastTS[e.TID])
			}
			lastTS[e.TID] = e.TS
		}
	}
	if spans == 0 {
		t.Fatal("no spans exported")
	}
	hasSweep, hasCampaign := false, false
	for name := range lanes {
		if strings.HasPrefix(name, "sweep-worker-") {
			hasSweep = true
		}
		if strings.HasPrefix(name, "campaign-worker-") {
			hasCampaign = true
		}
	}
	if !lanes["main"] || !hasSweep || !hasCampaign {
		t.Errorf("expected main + sweep-worker + campaign-worker lanes, got %v", lanes)
	}
}

// The trace schema holds for a multi-worker campaign of wide batches too:
// it exports campaign-worker-N lanes with stably-sorted, nondecreasing
// per-lane timestamps. Batch packing changes span counts, never the trace
// shape.
func TestTraceFileSchemaWideLanes(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec, 0)
	var out, errBuf bytes.Buffer
	code := runCover(ctx, coverRun{
		circuit: "s510", lk: 8, beta: 50, seed: 1, workers: 4,
		format: "csv", noTiming: true, cache: sweep.NewCache(),
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("runCover exit %d: %s", code, errBuf.String())
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	laneName := map[int]string{}
	lastTS := map[int]float64{}
	spansPerLane := map[int]int{}
	for _, e := range events {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				laneName[e.TID] = e.Args["name"].(string)
			}
		case "X":
			spansPerLane[e.TID]++
			if e.TS < lastTS[e.TID] {
				t.Fatalf("lane %d timestamps regress: %v after %v", e.TID, e.TS, lastTS[e.TID])
			}
			lastTS[e.TID] = e.TS
		}
	}
	workerSpans := 0
	for tid, n := range spansPerLane {
		name, ok := laneName[tid]
		if !ok {
			t.Fatalf("span lane %d has no thread_name metadata", tid)
		}
		if strings.HasPrefix(name, "campaign-worker-") {
			workerSpans += n
		}
	}
	if workerSpans == 0 {
		t.Fatalf("no batch spans on campaign-worker lanes: %v", laneName)
	}
}

// Profiling composes with lint mode: the regression this pins is the
// -cpuprofile/-memprofile flags being silently ignored when -lint ran.
func TestProfilesComposeWithLint(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code := runLint(context.Background(), lintRun{circuit: "s510", lk: 8, beta: 50, seed: 1, threshold: "error", cache: sweep.NewCache()}, &out, &errBuf)
	stop()
	if code != 0 {
		t.Fatalf("runLint exit %d: %s", code, errBuf.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
