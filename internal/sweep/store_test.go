package sweep

// Tests for the two-tier cache: the memory LRU over a persistent
// internal/cas store. The properties pinned here are the tentpole's
// acceptance criteria — a warm cache directory serves every shared-prefix
// stage from disk with zero recomputes, and a corrupted entry is
// quarantined and transparently recomputed with byte-identical output.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
)

// storeDir opens a cas store in a fresh temp dir.
func storeDir(t *testing.T) (*cas.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// twoTierMatrix is a small matrix with shared prefixes: 2 circuits x 2 lks
// x 1 seed — each circuit parses/analyzes/saturates once, partitions twice.
func twoTierMatrix() []Job {
	return []Job{
		{Circuit: "s27", LK: 3, Beta: 50, Seed: 1},
		{Circuit: "s27", LK: 4, Beta: 50, Seed: 1},
		{Circuit: "s1423", LK: 16, Beta: 50, Seed: 1},
		{Circuit: "s1423", LK: 24, Beta: 50, Seed: 1},
	}
}

// renderAll renders a report deterministically (no timing).
func renderAll(t *testing.T, rep *Report) (string, string) {
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

func runWithStore(t *testing.T, st *cas.Store) (*Report, *Cache) {
	t.Helper()
	cache := NewCacheWithStore(st)
	rep, err := Run(context.Background(), twoTierMatrix(), Config{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cache.Flush()
	return rep, cache
}

func TestWarmStoreServesEveryStageFromDisk(t *testing.T) {
	st, _ := storeDir(t)

	cold, _ := runWithStore(t, st)
	coldJSON, coldCSV := renderAll(t, cold)
	cs := cold.Cache
	if cs.Parsed.Misses != 2 || cs.Analyzed.Misses != 2 || cs.Saturated.Misses != 2 {
		t.Fatalf("cold misses = %d/%d/%d, want 2/2/2", cs.Parsed.Misses, cs.Analyzed.Misses, cs.Saturated.Misses)
	}
	if cs.Parsed.DiskHits+cs.Analyzed.DiskHits+cs.Saturated.DiskHits != 0 {
		t.Fatalf("cold run reported disk hits: %+v", cs)
	}

	// A fresh cache over the same store: every stage must come from disk,
	// zero recomputes, byte-identical report.
	warm, _ := runWithStore(t, st)
	warmJSON, warmCSV := renderAll(t, warm)
	ws := warm.Cache
	if ws.Parsed.Misses+ws.Analyzed.Misses+ws.Saturated.Misses != 0 {
		t.Fatalf("warm run recomputed: parsed %dm, analyzed %dm, saturated %dm",
			ws.Parsed.Misses, ws.Analyzed.Misses, ws.Saturated.Misses)
	}
	if ws.Parsed.DiskHits != 2 || ws.Analyzed.DiskHits != 2 || ws.Saturated.DiskHits != 2 {
		t.Fatalf("warm disk hits = %d/%d/%d, want 2/2/2", ws.Parsed.DiskHits, ws.Analyzed.DiskHits, ws.Saturated.DiskHits)
	}
	if ws.DiskErrors != 0 {
		t.Fatalf("warm run reported %d disk errors", ws.DiskErrors)
	}
	if warmJSON != coldJSON {
		t.Error("warm JSON report differs from cold run")
	}
	if warmCSV != coldCSV {
		t.Error("warm CSV report differs from cold run")
	}
}

// TestCorruptStoreEntryRecomputed is the satellite regression test: a
// truncated CAS entry must be detected, quarantined, and the stage
// transparently recomputed with output byte-identical to a cold run.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	st, dir := storeDir(t)
	cold, _ := runWithStore(t, st)
	coldJSON, coldCSV := renderAll(t, cold)

	// Truncate every saturated entry on disk.
	corrupted := 0
	err := filepath.WalkDir(filepath.Join(dir, "saturated"), func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		corrupted++
		return os.WriteFile(p, data[:len(data)/2], 0o644)
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupting saturated entries: n=%d err=%v", corrupted, err)
	}

	warm, _ := runWithStore(t, st)
	warmJSON, warmCSV := renderAll(t, warm)
	ws := warm.Cache
	if ws.Saturated.Misses != int64(corrupted) {
		t.Fatalf("saturated misses = %d, want %d recomputes", ws.Saturated.Misses, corrupted)
	}
	if ws.DiskErrors == 0 {
		t.Fatal("corruption did not surface in DiskErrors")
	}
	if warmJSON != coldJSON || warmCSV != coldCSV {
		t.Fatal("recomputed report differs from cold run")
	}
	// The bad entries moved to quarantine and the recomputes healed the
	// store: a third run is all disk hits again.
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qents) != corrupted {
		t.Fatalf("quarantine holds %d files (err=%v), want %d", len(qents), err, corrupted)
	}
	healed, _ := runWithStore(t, st)
	hs := healed.Cache
	if hs.Saturated.Misses != 0 || hs.Saturated.DiskHits != int64(corrupted) {
		t.Fatalf("healed run: %d misses, %d disk hits, want 0/%d", hs.Saturated.Misses, hs.Saturated.DiskHits, corrupted)
	}
}

// TestStoreErrorsNeverCached: a store whose Put always fails must not
// affect results — write-behind errors only count. The counter is
// atomic: Put runs on concurrent write-behind goroutines.
type failingStore struct{ puts atomic.Int64 }

func (f *failingStore) Get(stage, key string, schema int) ([]byte, bool, error) {
	return nil, false, nil
}
func (f *failingStore) Put(stage, key string, schema int, payload []byte) error {
	f.puts.Add(1)
	return os.ErrPermission
}

func TestFailingStoreDegradesGracefully(t *testing.T) {
	cache := NewCacheWithStore(&failingStore{})
	rep, err := Run(context.Background(), twoTierMatrix()[:2], Config{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cache.Flush()
	if rep.FirstErr() != nil {
		t.Fatalf("jobs failed under a broken store: %v", rep.FirstErr())
	}
	if got := cache.Stats().DiskErrors; got == 0 {
		t.Fatal("failed writes not counted as disk errors")
	}
}

func TestTrailerShowsTierSplit(t *testing.T) {
	st, _ := storeDir(t)
	runWithStore(t, st)
	warm, _ := runWithStore(t, st)
	var b bytes.Buffer
	if err := warm.WriteText(&b, RenderOptions{CacheStats: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "saturated 2h/2d/0m/0e") {
		t.Fatalf("trailer missing tier split:\n%s", b.String())
	}
}

// recordingStore remembers the key of every entry written through it.
type recordingStore struct {
	*cas.Store
	mu   sync.Mutex
	keys map[string][]string // stage -> keys
}

func (r *recordingStore) Put(stage, key string, schema int, payload []byte) error {
	r.mu.Lock()
	r.keys[stage] = append(r.keys[stage], key)
	r.mu.Unlock()
	return r.Store.Put(stage, key, schema, payload)
}

// TestSaturatedEntryFromOlderSchemaMisses: a saturated entry written at
// schema version 1, by a build whose Saturate made other decisions, must be
// a clean miss (recomputed, no disk error), never a hit.
func TestSaturatedEntryFromOlderSchemaMisses(t *testing.T) {
	if core.SaturatedSchemaVersion == 1 {
		t.Fatal("SaturatedSchemaVersion is still 1")
	}
	st, _ := storeDir(t)
	rec := &recordingStore{Store: st, keys: map[string][]string{}}
	cache := NewCacheWithStore(rec)
	cold, err := Run(context.Background(), twoTierMatrix(), Config{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cache.Flush()
	coldJSON, coldCSV := renderAll(t, cold)

	// Rewrite every saturated entry under the old schema version.
	keys := rec.keys[stageName[stageSaturated]]
	if len(keys) != 2 {
		t.Fatalf("cold run wrote %d saturated entries, want 2", len(keys))
	}
	for _, key := range keys {
		payload, ok, err := st.Get(stageName[stageSaturated], key, core.SaturatedSchemaVersion)
		if err != nil || !ok {
			t.Fatalf("reading %s: ok=%v err=%v", key, ok, err)
		}
		if err := st.Put(stageName[stageSaturated], key, 1, payload); err != nil {
			t.Fatal(err)
		}
	}

	warm, _ := runWithStore(t, st)
	ws := warm.Cache
	if ws.Saturated.Misses != 2 || ws.Saturated.DiskHits != 0 || ws.DiskErrors != 0 {
		t.Fatalf("version-1 entries: %d misses, %d disk hits, %d disk errors; want 2/0/0",
			ws.Saturated.Misses, ws.Saturated.DiskHits, ws.DiskErrors)
	}
	if ws.Analyzed.DiskHits != 2 {
		t.Fatalf("analyzed disk hits = %d, want 2 (only the saturated schema moved)", ws.Analyzed.DiskHits)
	}
	if warmJSON, warmCSV := renderAll(t, warm); warmJSON != coldJSON || warmCSV != coldCSV {
		t.Fatal("recomputed report differs from cold run")
	}
}
