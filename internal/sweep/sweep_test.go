package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
)

func testJobs() []Job {
	return Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{50}, []int64{1, 2})
}

// The determinism guarantee: the same job matrix produces byte-identical
// deterministic reports at any worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	jobs := testJobs()
	render := func(workers int) (jsonOut, csvOut string) {
		t.Helper()
		rep, err := Run(context.Background(), jobs, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stats.Failed != 0 {
			t.Fatalf("workers=%d: %v", workers, rep.FirstErr())
		}
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j, RenderOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c, RenderOptions{}); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(1)
	j8, c8 := render(8)
	if j1 != j8 {
		t.Errorf("JSON reports differ between workers=1 and workers=8:\n--- 1\n%s\n--- 8\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("CSV reports differ between workers=1 and workers=8:\n--- 1\n%s\n--- 8\n%s", c1, c8)
	}
}

// Every sweep job must price exactly like a serial single-run compilation
// of the same (circuit, l_k, beta, seed) — the Table 10-12 equivalence.
func TestMatchesSerialCompile(t *testing.T) {
	jobs := testJobs()
	rep, err := Run(context.Background(), jobs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range rep.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		c, err := LoadCircuit(jr.Job.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := core.Compile(context.Background(), c, jr.Job.Options())
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		if serial.Areas != jr.Areas {
			t.Errorf("job %d (%s): sweep areas %+v != serial %+v", i, jr.Job, jr.Areas, serial.Areas)
		}
		if len(serial.Partition.Clusters) != jr.Clusters {
			t.Errorf("job %d (%s): clusters %d != serial %d", i, jr.Job, jr.Clusters, len(serial.Partition.Clusters))
		}
	}
}

func TestResultsInJobOrder(t *testing.T) {
	jobs := testJobs()
	rep, err := Run(context.Background(), jobs, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(rep.Jobs), len(jobs))
	}
	for i := range jobs {
		if rep.Jobs[i].Job != jobs[i] {
			t.Fatalf("result %d holds job %+v, want %+v", i, rep.Jobs[i].Job, jobs[i])
		}
	}
}

// A context cancelled before the sweep starts downgrades every job to a
// structured context.Canceled error rather than aborting the sweep.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, testJobs(), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Failed != len(rep.Jobs) {
		t.Fatalf("failed = %d, want all %d", rep.Stats.Failed, len(rep.Jobs))
	}
	for i, jr := range rep.Jobs {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, jr.Err)
		}
	}
}

// Cancelling mid-sweep stops promptly: in-flight jobs observe ctx through
// core.Compile's phase checks and unstarted jobs never compile.
func TestCancelMidSweepStopsPromptly(t *testing.T) {
	started := make(chan struct{}, 64)
	block := func(ctx context.Context, c *netlist.Circuit, opt core.Options) (*core.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(ctx, testJobs(), Config{Workers: 2, Compile: block})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	<-started // at least one job is in flight
	cancel()
	select {
	case rep := <-done:
		for i, jr := range rep.Jobs {
			if !errors.Is(jr.Err, context.Canceled) {
				t.Errorf("job %d error = %v, want context.Canceled", i, jr.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not stop after cancellation")
	}
}

// A panicking job becomes a *PanicError; the rest of the sweep completes.
func TestPanicRecovery(t *testing.T) {
	boom := func(ctx context.Context, c *netlist.Circuit, opt core.Options) (*core.Result, error) {
		if opt.LK == 24 {
			panic("solver corrupted")
		}
		return core.Compile(ctx, c, opt)
	}
	jobs := Matrix([]string{"s27"}, []int{16, 24}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{Workers: 2, Compile: boom})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Stats.Failed)
	}
	if rep.Jobs[0].Err != nil {
		t.Fatalf("healthy job failed: %v", rep.Jobs[0].Err)
	}
	var pe *PanicError
	if !errors.As(rep.Jobs[1].Err, &pe) {
		t.Fatalf("job error = %v, want *PanicError", rep.Jobs[1].Err)
	}
	if pe.Value != "solver corrupted" || !strings.Contains(pe.Stack, "runJob") {
		t.Errorf("panic not captured: value=%v stack has runJob=%v", pe.Value, strings.Contains(pe.Stack, "runJob"))
	}
}

// JobTimeout caps each job with a deadline derived from the sweep context.
func TestJobTimeout(t *testing.T) {
	slow := func(ctx context.Context, c *netlist.Circuit, opt core.Options) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	jobs := Matrix([]string{"s27"}, []int{16}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{Workers: 1, JobTimeout: 10 * time.Millisecond, Compile: slow})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Jobs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", rep.Jobs[0].Err)
	}
}

func TestSetupFailures(t *testing.T) {
	if _, err := Run(context.Background(), []Job{{Circuit: "", LK: 16}}, Config{}); err == nil {
		t.Error("empty circuit name accepted")
	}
	if _, err := Run(context.Background(), []Job{{Circuit: "s27", LK: 0}}, Config{}); err == nil {
		t.Error("LK=0 accepted")
	}
	if _, err := Run(context.Background(), []Job{{Circuit: "no-such-circuit", LK: 16}}, Config{}); err == nil {
		t.Error("unknown circuit accepted")
	}
}

// A Cache handed in via Config.Cache survives across runs: the second run
// over the same (circuit, seed, flow) prefix reuses every stage, and its
// report is byte-identical to the first.
func TestSharedCacheAcrossRuns(t *testing.T) {
	cache := NewCache()
	jobs := Matrix([]string{"s27"}, []int{3, 4}, []int{50}, []int64{1})
	run := func() *Report {
		t.Helper()
		rep, err := Run(context.Background(), jobs, Config{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Failed != 0 {
			t.Fatal(rep.FirstErr())
		}
		return rep
	}
	cold := run()
	if got := cold.Cache.Saturated; got.Misses != 1 || got.Hits != 1 {
		t.Errorf("cold run saturated stats = %+v, want 1 miss + 1 hit", got)
	}
	warm := run()
	if got := warm.Cache.Parsed.Misses; got != 1 {
		t.Errorf("warm run re-parsed the circuit: %+v", warm.Cache.Parsed)
	}
	if got := cache.Stats().Saturated; got.Misses != 1 || got.Hits != 3 {
		t.Errorf("saturated stats after both runs = %+v, want 1 miss + 3 hits", got)
	}

	// Byte-identical reports, cold or warm: caching may never change output.
	var coldBuf, warmBuf bytes.Buffer
	if err := cold.WriteJSON(&coldBuf, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := warm.WriteJSON(&warmBuf, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if coldBuf.String() != warmBuf.String() {
		t.Errorf("warm-cache report diverged:\n--- cold\n%s\n--- warm\n%s", coldBuf.String(), warmBuf.String())
	}
}

// Cache.Compile is the single-job funnel: it must price exactly like
// core.Compile and share the prefix with sweep jobs in the same cache.
func TestCacheCompileMatchesCoreCompile(t *testing.T) {
	cache := NewCache()
	opt := core.DefaultOptions(3, 1)
	viaCache, err := cache.Compile(context.Background(), "s27", nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if viaCache.Areas != direct.Areas {
		t.Errorf("cached compile priced differently:\ncache:  %+v\ndirect: %+v", viaCache.Areas, direct.Areas)
	}
	// A sweep job over the same prefix must hit all three stages.
	before := cache.Stats()
	if _, err := Run(context.Background(), Matrix([]string{"s27"}, []int{3}, []int{50}, []int64{1}), Config{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	for _, st := range [][2]StageStats{{before.Parsed, after.Parsed}, {before.Analyzed, after.Analyzed}, {before.Saturated, after.Saturated}} {
		if st[1].Misses != st[0].Misses || st[1].Hits != st[0].Hits+1 {
			t.Errorf("sweep after Cache.Compile did not reuse the prefix: before %+v, after %+v", before, after)
		}
	}
}

func TestExpandCircuitsAll(t *testing.T) {
	names, err := ExpandCircuits([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 18 || names[0] != "s27" || names[len(names)-1] != "s38584.1" {
		t.Errorf("all alias expanded oddly: %v", names)
	}
}

// Options must be copyable across jobs: two jobs' Options share no
// mutable state, and Locked, the one reference field, stays nil.
func TestJobOptionsAreValueCopies(t *testing.T) {
	a := Job{Circuit: "s27", LK: 3, Seed: 1}.Options()
	b := Job{Circuit: "s27", LK: 3, Seed: 1}.Options()
	a.RefinePasses = 0
	if b.RefinePasses == 0 || a.Locked != nil || b.Locked != nil {
		t.Fatal("Options state shared between jobs")
	}
	if a.Beta != 50 {
		t.Fatalf("zero Job.Beta should default to the paper's 50, got %d", a.Beta)
	}
}

func TestStatsAggregation(t *testing.T) {
	rep, err := Run(context.Background(), testJobs(), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Jobs != 8 || st.Failed != 0 || st.Workers != 4 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.Wall <= 0 || st.Compute <= 0 || st.JobsPerSec <= 0 {
		t.Fatalf("timing stats missing: %+v", st)
	}
	var phaseSum time.Duration
	st.Phases.Each(func(_ string, d time.Duration) { phaseSum += d })
	if phaseSum <= 0 || phaseSum > st.Compute {
		t.Fatalf("phase totals odd: %+v vs compute %v", st.Phases, st.Compute)
	}
}

// The preload's parse is attributed to the first job of each circuit, in
// input order, and joins that job's Elapsed: no other job reports a parse,
// and no job's phases sum past its Elapsed.
func TestParseAttributedToFirstJobOfCircuit(t *testing.T) {
	jobs := testJobs()
	rep, err := Run(context.Background(), jobs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, jr := range rep.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		first := !seen[jr.Job.Circuit]
		seen[jr.Job.Circuit] = true
		if got := jr.Phases.Parse > 0; got != first {
			t.Errorf("job %d (%s): parse %v, want nonzero only on the circuit's first job", i, jr.Job, jr.Phases.Parse)
		}
		var sum time.Duration
		jr.Phases.Each(func(_ string, d time.Duration) { sum += d })
		if sum > jr.Elapsed {
			t.Errorf("job %d (%s): phases sum to %v, past elapsed %v", i, jr.Job, sum, jr.Elapsed)
		}
	}
}

// Coverage campaigns run per job with the job's seed and a single worker,
// so a coverage-enabled sweep stays byte-identical across pool sizes and
// plain sweeps stay free of the coverage column.
func TestCoverageDeterministicAcrossWorkers(t *testing.T) {
	jobs := Matrix([]string{"s27", "s510"}, []int{4, 8}, []int{50}, []int64{1})
	render := func(workers int) (jsonOut, csvOut string) {
		t.Helper()
		rep, err := Run(context.Background(), jobs, Config{Workers: workers, Coverage: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Stats.Failed != 0 {
			t.Fatalf("workers=%d: %v", workers, rep.FirstErr())
		}
		for i := range rep.Jobs {
			if rep.Jobs[i].Coverage == nil {
				t.Fatalf("workers=%d: job %d has no coverage report", workers, i)
			}
		}
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j, RenderOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c, RenderOptions{}); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(1)
	j8, c8 := render(8)
	if j1 != j8 {
		t.Errorf("coverage JSON differs between workers=1 and workers=8:\n--- 1\n%s\n--- 8\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("coverage CSV differs between workers=1 and workers=8:\n--- 1\n%s\n--- 8\n%s", c1, c8)
	}
	if !strings.Contains(j1, `"coverage"`) {
		t.Error("coverage block missing from JSON")
	}
	if !strings.Contains(c1, "coverage") {
		t.Error("coverage column missing from CSV")
	}
}

func TestNoCoverageWithoutFlag(t *testing.T) {
	jobs := Matrix([]string{"s27"}, []int{4}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Coverage != nil {
		t.Fatal("coverage report attached without Config.Coverage")
	}
	var c bytes.Buffer
	if err := rep.WriteCSV(&c, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.String(), "coverage") {
		t.Error("coverage column present in a plain sweep")
	}
}
