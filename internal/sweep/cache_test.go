package sweep

// Tests for the shared-prefix artifact cache: the singleflight guarantee
// (one computation per key no matter how many workers race), the LRU
// bound, and the error-transparency rule. The concurrent tests are the
// ones `go test -race` leans on.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Singleflight: N concurrent requesters for one key run the computation
// exactly once and all observe the same value; the stats attribute one
// miss to the computing caller and a hit to everyone else.
func TestCacheSingleflight(t *testing.T) {
	const goroutines = 16
	cache := NewCache(0)
	var calls atomic.Int64
	var wg sync.WaitGroup
	values := make([]any, goroutines)
	computedCount := atomic.Int64{}
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, computed, err := cache.getOrCompute(stageSaturated, "k", nil, nil, func() (any, error) {
				calls.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return "artifact", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			if computed {
				computedCount.Add(1)
			}
			values[i] = v
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("computation ran %d times, want exactly 1", got)
	}
	if got := computedCount.Load(); got != 1 {
		t.Errorf("%d callers reported computed=true, want exactly 1", got)
	}
	for i, v := range values {
		if v != "artifact" {
			t.Errorf("goroutine %d got %v", i, v)
		}
	}
	st := cache.Stats()
	if st.Saturated.Misses != 1 || st.Saturated.Hits != goroutines-1 {
		t.Errorf("stats = %dh/%dm, want %dh/1m", st.Saturated.Hits, st.Saturated.Misses, goroutines-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// Failed computations must never be cached: the next request for the key
// recomputes, so one job's cancellation cannot poison its siblings.
func TestCacheErrorsNotCached(t *testing.T) {
	cache := NewCache(0)
	boom := errors.New("transient")
	var calls int
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := cache.getOrCompute(stageAnalyzed, "k", nil, nil, fn); !errors.Is(err, boom) {
		t.Fatalf("first call: err = %v, want %v", err, boom)
	}
	v, computed, err := cache.getOrCompute(stageAnalyzed, "k", nil, nil, fn)
	if err != nil || v != "ok" {
		t.Fatalf("second call: v=%v err=%v, want ok/nil", v, err)
	}
	if !computed {
		t.Error("second call should have recomputed after the cached failure was dropped")
	}
	st := cache.Stats()
	if st.Analyzed.Misses != 2 || st.Analyzed.Hits != 0 {
		t.Errorf("stats = %dh/%dm, want 0h/2m", st.Analyzed.Hits, st.Analyzed.Misses)
	}
}

// The LRU bound: with capacity 2, inserting a third key evicts the least
// recently used entry — and touching an entry refreshes its recency.
func TestCacheEvictionLRU(t *testing.T) {
	cache := NewCache(2)
	get := func(key string) (any, bool) {
		v, computed, err := cache.getOrCompute(stageParsed, key, nil, nil, func() (any, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, computed
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now the LRU entry
	get("c") // evicts b
	st := cache.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if st.Parsed.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Parsed.Evictions)
	}
	if _, computed := get("a"); computed {
		t.Error("a was evicted but should have been kept (recently used)")
	}
	if _, computed := get("b"); !computed {
		t.Error("b should have been evicted and recomputed")
	}
}

// Concurrent churn across many keys with a tight bound: values must always
// match their key (no cross-key bleed), and the entry count must respect
// the bound once the dust settles. Run under -race this is the cache's
// main data-race probe.
func TestCacheConcurrentChurn(t *testing.T) {
	cache := NewCache(4)
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := keys[(g+i)%len(keys)]
				v, _, err := cache.getOrCompute(cacheStage(i%3), key, nil, nil, func() (any, error) {
					return "v:" + key, nil
				})
				if err != nil {
					t.Errorf("key %s: %v", key, err)
					return
				}
				if v != "v:"+key {
					t.Errorf("key %s: got %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Entries > 4 {
		t.Errorf("entries = %d exceeds capacity 4 after quiescence", st.Entries)
	}
	total := st.Parsed.Hits + st.Parsed.Misses + st.Analyzed.Hits + st.Analyzed.Misses +
		st.Saturated.Hits + st.Saturated.Misses
	if total != 8*200 {
		t.Errorf("hit+miss total = %d, want %d", total, 8*200)
	}
}

// Zero and negative capacities fall back to the default bound.
func TestCacheDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		if got := NewCache(capacity).Stats().Capacity; got != DefaultCacheEntries {
			t.Errorf("NewCache(%d).Capacity = %d, want %d", capacity, got, DefaultCacheEntries)
		}
	}
	if got := NewCache(7).Stats().Capacity; got != 7 {
		t.Errorf("explicit capacity not honoured: got %d, want 7", got)
	}
}
