package sweep

// Tests for the observability contract: instrumentation must never perturb
// output. Reports stay byte-identical with tracing enabled, the metrics
// table is identical for any worker count (run under -race in CI), and the
// progress callback reports every job exactly once.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func obsTestJobs() []Job {
	return Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{25, 100}, []int64{1, 2})
}

// Tracing is a pure side channel: the same matrix swept with a live
// recorder renders byte-identical reports, and the recorder actually saw
// the jobs and stages on per-worker lanes.
func TestTracedSweepByteIdenticalReports(t *testing.T) {
	jobs := obsTestJobs()
	plain, err := Run(context.Background(), jobs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, err := Run(obs.With(context.Background(), rec, 0), jobs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pj, pc := renderDeterministic(t, plain)
	tj, tc := renderDeterministic(t, traced)
	if pj != tj {
		t.Errorf("JSON reports differ with tracing enabled:\n--- plain\n%s\n--- traced\n%s", pj, tj)
	}
	if pc != tc {
		t.Errorf("CSV reports differ with tracing enabled:\n--- plain\n%s\n--- traced\n%s", pc, tc)
	}
	// One span per job plus the preloaded parse stages at minimum.
	if rec.Len() < len(jobs) {
		t.Errorf("recorder holds %d spans for %d jobs", rec.Len(), len(jobs))
	}
	lanes := rec.LaneNames()
	if len(lanes) < 2 {
		t.Errorf("no worker lanes registered: %v", lanes)
	}
}

// The metrics table aggregates in job order from per-job counters, so it is
// identical for any worker count and with caching disabled (counters follow
// consumption: a shared Saturated artifact reports its flow work to every
// job that consumed it).
func TestMetricsIdenticalAcrossWorkersAndCache(t *testing.T) {
	jobs := obsTestJobs()
	render := func(cfg Config) string {
		rep, err := Run(context.Background(), jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Failed != 0 {
			t.Fatal(rep.FirstErr())
		}
		var buf bytes.Buffer
		if err := rep.Metrics().WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := render(Config{Workers: 1})
	if got := render(Config{Workers: 8}); got != base {
		t.Errorf("metrics table differs between workers 1 and 8:\n--- workers=1\n%s\n--- workers=8\n%s", base, got)
	}
	// NoCache recomputes the shared prefixes, so only the cache.* counters
	// may change; the kernel counters must not (consumption attribution).
	dropCache := func(table string) string {
		var kept []string
		for _, l := range strings.Split(table, "\n") {
			if !strings.HasPrefix(l, "cache.") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if got := render(Config{Workers: 4, NoCache: true}); dropCache(got) != dropCache(base) {
		t.Errorf("kernel counters differ with NoCache:\n--- cached\n%s\n--- no-cache\n%s", base, got)
	}
	// Sanity: the table carries the hot-kernel counters, not just totals.
	for _, want := range []string{"flow.trees", "retime.spfa_relaxations", "partition.dfs_visits", "cache.saturated.hits", "sweep.jobs"} {
		if !bytes.Contains([]byte(base), []byte(want)) {
			t.Errorf("metrics table missing %q:\n%s", want, base)
		}
	}
}

// The JSON metrics object round-trips and matches the table's counters.
func TestMetricsJSONRendering(t *testing.T) {
	jobs := Matrix([]string{"s27"}, []int{16}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	var with, without bytes.Buffer
	if err := rep.WriteJSON(&with, RenderOptions{Metrics: true}); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&without, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics *obs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(with.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metrics == nil {
		t.Fatal("Metrics option did not emit a \"metrics\" object")
	}
	if doc.Metrics.Counters["sweep.jobs"] != 1 {
		t.Errorf("metrics.sweep.jobs = %d, want 1", doc.Metrics.Counters["sweep.jobs"])
	}
	if doc.Metrics.Counters["campaign.batches"] == 0 {
		t.Error("coverage sweep metrics missing campaign counters")
	}
	var bare struct {
		Metrics *obs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(without.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Metrics != nil {
		t.Error("\"metrics\" object present without the Metrics option")
	}
}

// Progress fires once per job with the fixed total, ending at total/total.
func TestProgressCallbackCountsJobs(t *testing.T) {
	jobs := obsTestJobs()
	var mu sync.Mutex
	calls := 0
	maxDone := 0
	rep, err := Run(context.Background(), jobs, Config{
		Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > maxDone {
				maxDone = done
			}
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Failed != 0 {
		t.Fatal(rep.FirstErr())
	}
	if calls != len(jobs) || maxDone != len(jobs) {
		t.Errorf("progress calls = %d, max done = %d, want %d", calls, maxDone, len(jobs))
	}
}
