package main

// End-to-end CLI tests for the distributed-sweep tooling: -shard slices a
// sweep into shard documents, `merced merge` reassembles them into output
// byte-identical to the unsharded run, -cache-dir makes a rerun serve
// every artifact from disk, and `merced cas` maintains the store.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/sweep"
)

// shardedSweep runs `-sweep -shard i/N` for every i and returns the shard
// document paths.
func shardedSweep(t *testing.T, n int, cfg sweepRun) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= n; i++ {
		cfg.shard = sweep.Shard{Index: i, Count: n}.String()
		var out, errb bytes.Buffer
		if code := runSweep(context.Background(), cfg, &out, &errb); code != 0 {
			t.Fatalf("runSweep -shard %s exit %d: %s", cfg.shard, code, errb.String())
		}
		path := filepath.Join(dir, cfg.shard[:1]+".json")
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func TestShardMergeMatchesUnshardedCLI(t *testing.T) {
	base := sweepRun{circuits: "s27", lks: "3,4,5", betas: "25,50", seeds: "1", format: "csv", noTiming: true}
	var want, errb bytes.Buffer
	if code := runSweep(context.Background(), base, &want, &errb); code != 0 {
		t.Fatalf("unsharded runSweep exit %d: %s", code, errb.String())
	}
	paths := shardedSweep(t, 3, base)
	var got, merr bytes.Buffer
	if code := runMerge(paths, &got, &merr); code != 0 {
		t.Fatalf("runMerge exit %d: %s", code, merr.String())
	}
	if got.String() != want.String() {
		t.Errorf("merged CLI output differs from unsharded run:\n--- unsharded ---\n%s--- merged ---\n%s", want.String(), got.String())
	}
}

func TestShardFlagRejectsInvalidSpec(t *testing.T) {
	for _, bad := range []string{"0/4", "5/4", "nope"} {
		var out, errb bytes.Buffer
		cfg := sweepRun{circuits: "s27", lks: "3", betas: "50", seeds: "1", shard: bad}
		if code := runSweep(context.Background(), cfg, &out, &errb); code != 1 {
			t.Errorf("-shard %s: exit %d, want 1", bad, code)
		}
		if !strings.Contains(errb.String(), "shard") {
			t.Errorf("-shard %s: stderr does not mention the shard spec: %q", bad, errb.String())
		}
	}
}

func TestMergeRejectsIncompleteShardSet(t *testing.T) {
	paths := shardedSweep(t, 3, sweepRun{
		circuits: "s27", lks: "3,4", betas: "50", seeds: "1", format: "json", noTiming: true,
	})
	var out, errb bytes.Buffer
	if code := runMerge(paths[:2], &out, &errb); code != 1 {
		t.Fatalf("runMerge with 2 of 3 shards exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "missing indices") {
		t.Errorf("stderr does not name the missing shard: %q", errb.String())
	}
}

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
