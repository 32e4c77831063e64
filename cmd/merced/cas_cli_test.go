package main

// End-to-end CLI tests for the persistent artifact store: -cache-dir makes
// a rerun serve every artifact from disk, and `merced cas` maintains the
// store.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/sweep"
)

// TestCacheDirWarmRunHasZeroMisses is the acceptance check behind
// -cache-dir: a second process over the same store recomputes nothing —
// every Parse/Analyze/Saturate is a memory or disk hit.
func TestCacheDirWarmRunHasZeroMisses(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, sweep.CacheStats) {
		// A fresh Cache per call models a fresh process on a shared dir.
		cache := sweep.NewCacheWithStore(store)
		cfg := sweepRun{
			circuits: "s27,s1423", lks: "3,4", betas: "50", seeds: "1",
			format: "json", noTiming: true, cacheStats: true, cache: cache,
		}
		var out, errb bytes.Buffer
		if code := runSweep(context.Background(), cfg, &out, &errb); code != 0 {
			t.Fatalf("runSweep exit %d: %s", code, errb.String())
		}
		cache.Flush()
		// The cache object necessarily differs between a cold and a warm
		// run; compare the report with it stripped.
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var stats sweep.CacheStats
		if err := json.Unmarshal(doc["cache"], &stats); err != nil {
			t.Fatal(err)
		}
		delete(doc, "cache")
		stripped, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(stripped), stats
	}
	cold, coldStats := run()
	if coldStats.Saturated.Misses == 0 {
		t.Fatal("cold run reported no saturate misses; store cannot have been exercised")
	}
	warm, warmStats := run()
	for stage, st := range map[string]sweep.StageStats{
		"parsed": warmStats.Parsed, "analyzed": warmStats.Analyzed, "saturated": warmStats.Saturated,
	} {
		if st.Misses != 0 {
			t.Errorf("warm run recomputed %s: %+v", stage, st)
		}
		if st.DiskHits == 0 {
			t.Errorf("warm run shows no %s disk hits: %+v", stage, st)
		}
	}
	if cold != warm {
		t.Errorf("warm report differs from cold report:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

func TestCASSubcommandStatsAndGC(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sweep.NewCacheWithStore(store)
	cfg := sweepRun{circuits: "s27", lks: "3,4", betas: "50", seeds: "1", cache: cache}
	var out, errb bytes.Buffer
	if code := runSweep(context.Background(), cfg, &out, &errb); code != 0 {
		t.Fatalf("runSweep exit %d: %s", code, errb.String())
	}
	cache.Flush()

	var stats, serr bytes.Buffer
	if code := runCAS([]string{"stats", "-cache-dir", dir}, &stats, &serr); code != 0 {
		t.Fatalf("cas stats exit %d: %s", code, serr.String())
	}
	for _, want := range []string{"parsed", "analyzed", "saturated", "total"} {
		if !strings.Contains(stats.String(), want) {
			t.Errorf("cas stats output lacks %q:\n%s", want, stats.String())
		}
	}

	var gc, gerr bytes.Buffer
	if code := runCAS([]string{"gc", "-cache-dir", dir}, &gc, &gerr); code != 0 {
		t.Fatalf("cas gc exit %d: %s", code, gerr.String())
	}
	if !strings.Contains(gc.String(), "kept") || strings.Contains(gc.String(), "kept 0 entries") {
		t.Errorf("cas gc kept nothing: %q", gc.String())
	}

	// Usage errors are exit 2 and never touch the store.
	if code := runCAS(nil, &out, &errb); code != 2 {
		t.Errorf("cas with no verb: exit %d, want 2", code)
	}
	if code := runCAS([]string{"stats"}, &out, &errb); code != 2 {
		t.Errorf("cas stats without -cache-dir: exit %d, want 2", code)
	}
}

// A warm report-mode compile of a built-in -circuit reads its parse from
// the store like a sweep job does, while -circuit with a netlist path
// still fails as an unknown circuit rather than opening a file.
func TestCacheDirWarmReportReadsParse(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	compile := func() sweep.StageStats {
		cache := sweep.NewCacheWithStore(store)
		if _, err := compileOne(context.Background(), cache, "", "s27", 3, 50, 1); err != nil {
			t.Fatal(err)
		}
		cache.Flush()
		return cache.Stats().Parsed
	}
	compile()
	if warm := compile(); warm.Misses != 0 || warm.DiskHits != 1 {
		t.Errorf("warm -circuit s27 parse: %+v, want one disk hit and no miss", warm)
	}
	_, err = compileOne(context.Background(), sweep.NewCacheWithStore(store), "", "x.bench", 3, 50, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
		t.Errorf("-circuit x.bench: error %v, want an unknown circuit", err)
	}
}
