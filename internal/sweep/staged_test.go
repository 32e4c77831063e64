package sweep

// Tests for the staged shared-prefix pipeline inside the sweep engine:
// cached and uncached runs must render byte-identical deterministic
// reports, and the cache counters must reflect the matrix shape exactly.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
)

// renderDeterministic renders the report's deterministic (no-timing) JSON
// and CSV forms.
func renderDeterministic(t *testing.T, rep *Report) (jsonOut, csvOut string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&c, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// The headline refactor guarantee: shared-prefix reuse changes wall-clock
// cost only. Cached and uncached sweeps of the same matrix render
// byte-identical deterministic reports.
func TestCachedMatchesNoCacheByteIdentical(t *testing.T) {
	jobs := Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{25, 100}, []int64{1, 2})
	cached, err := Run(context.Background(), jobs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := Run(context.Background(), jobs, Config{Workers: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cj, cc := renderDeterministic(t, cached)
	uj, uc := renderDeterministic(t, uncached)
	if cj != uj {
		t.Errorf("JSON reports differ between cached and -no-cache:\n--- cached\n%s\n--- no-cache\n%s", cj, uj)
	}
	if cc != uc {
		t.Errorf("CSV reports differ between cached and -no-cache:\n--- cached\n%s\n--- no-cache\n%s", cc, uc)
	}
}

// Cache counters are a deterministic function of the matrix shape: one
// miss per distinct circuit for parse/analyze, one per (circuit, seed)
// for saturate, hits for every other job, regardless of worker count.
func TestCacheStatsReflectMatrixShape(t *testing.T) {
	// 2 circuits × 2 lks × 2 betas × 2 seeds = 16 jobs.
	jobs := Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{25, 100}, []int64{1, 2})
	for _, workers := range []int{1, 8} {
		rep, err := Run(context.Background(), jobs, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Failed != 0 {
			t.Fatal(rep.FirstErr())
		}
		cs := rep.Cache
		// Parse and analyze depend only on the circuit: 2 misses, 14 hits.
		if cs.Parsed.Misses != 2 || cs.Parsed.Hits != 14 {
			t.Errorf("workers=%d: parsed %dh/%dm, want 14h/2m", workers, cs.Parsed.Hits, cs.Parsed.Misses)
		}
		if cs.Analyzed.Misses != 2 || cs.Analyzed.Hits != 14 {
			t.Errorf("workers=%d: analyzed %dh/%dm, want 14h/2m", workers, cs.Analyzed.Hits, cs.Analyzed.Misses)
		}
		// Saturation also keys on the seed: 2×2 misses, 12 hits.
		if cs.Saturated.Misses != 4 || cs.Saturated.Hits != 12 {
			t.Errorf("workers=%d: saturated %dh/%dm, want 12h/4m", workers, cs.Saturated.Hits, cs.Saturated.Misses)
		}
		if ev := cs.Parsed.Evictions + cs.Analyzed.Evictions + cs.Saturated.Evictions; ev != 0 {
			t.Errorf("workers=%d: %d evictions on a matrix far below capacity", workers, ev)
		}
		if cs.Entries != 2+2+4 {
			t.Errorf("workers=%d: entries = %d, want 8", workers, cs.Entries)
		}
		if cs.Capacity != DefaultCacheEntries {
			t.Errorf("workers=%d: capacity = %d, want %d", workers, cs.Capacity, DefaultCacheEntries)
		}
	}
}

// NoCache keeps the per-job pipeline self-contained: the analyzed and
// saturated stages never touch the cache. (Parsed counters still reflect
// the circuit preload, which always deduplicates through the cache.)
func TestNoCacheSkipsStagedArtifacts(t *testing.T) {
	jobs := Matrix([]string{"s27"}, []int{16, 24}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.Cache
	if cs.Analyzed != (StageStats{}) || cs.Saturated != (StageStats{}) {
		t.Errorf("NoCache touched staged artifacts: analyzed %+v, saturated %+v", cs.Analyzed, cs.Saturated)
	}
	if cs.Parsed.Misses != 1 || cs.Parsed.Hits != 1 {
		t.Errorf("parsed preload %dh/%dm, want 1h/1m", cs.Parsed.Hits, cs.Parsed.Misses)
	}
}

// A tight cache still produces correct results — jobs just recompute
// evicted prefixes. This exercises the eviction path end to end.
func TestTinyCacheStillCorrect(t *testing.T) {
	jobs := Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{50}, []int64{1, 2})
	tiny, err := Run(context.Background(), jobs, Config{Workers: 2, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := Run(context.Background(), jobs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tj, _ := renderDeterministic(t, tiny)
	rj, _ := renderDeterministic(t, roomy)
	if tj != rj {
		t.Errorf("reports differ between CacheEntries=1 and default:\n--- tiny\n%s\n--- roomy\n%s", tj, rj)
	}
}

// Lint gating composes with the shared pipeline: every job still passes
// its gates, and the memoized netlist lint is exercised concurrently
// (a -race probe for Parsed.NetlistLint).
func TestLintGatesWithSharedArtifacts(t *testing.T) {
	jobs := Matrix([]string{"s27", "s510"}, []int{16, 24}, []int{50}, []int64{1})
	rep, err := Run(context.Background(), jobs, Config{Workers: 4, Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Failed != 0 {
		t.Fatal(rep.FirstErr())
	}
}

// Benchmarks for the shared-prefix speedup (`go test -bench Sweep
// -benchtime 1x`). The
// matrix crosses each (circuit, seed) prefix with six (l_k, β)
// coordinates, so the cached run saturates each prefix once instead of
// six times.
func benchmarkJobs() []Job {
	return Matrix([]string{"s27", "s510", "s1423"}, []int{16, 24}, []int{25, 50, 100}, []int64{1})
}

func runSweepBenchmark(b *testing.B, cfg Config) {
	jobs := benchmarkJobs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), jobs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.Failed != 0 {
			b.Fatal(rep.FirstErr())
		}
	}
}

func BenchmarkSweepSharedPrefix(b *testing.B) { runSweepBenchmark(b, Config{}) }

func BenchmarkSweepNoCache(b *testing.B) { runSweepBenchmark(b, Config{NoCache: true}) }

// BenchmarkSweepTraced is BenchmarkSweepSharedPrefix with a live trace
// recorder in the context; the delta against the plain benchmark is the
// enabled-tracing overhead (the disabled path must stay within noise of
// the plain run, which predates the obs layer).
func BenchmarkSweepTraced(b *testing.B) {
	jobs := benchmarkJobs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := obs.With(context.Background(), obs.NewRecorder(), 0)
		rep, err := Run(ctx, jobs, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Stats.Failed != 0 {
			b.Fatal(rep.FirstErr())
		}
	}
}
