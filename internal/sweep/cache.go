package sweep

// This file is the shared-prefix artifact cache. The staged core pipeline
// (core.Parsed → Analyzed → Saturated) is a pure function of (circuit,
// seed, flow.Config) — none of the per-job knobs (l_k, β, refine) enter
// before MakePartition — so any batch of compilations that crosses one
// circuit with many downstream coordinates can compute the expensive
// prefix once and branch at partitioning. The cache is:
//
//   - singleflight: the first job to request a key computes it while every
//     concurrent requester blocks on the same entry, so a stage is computed
//     exactly once no matter how many workers race for it;
//   - bounded: least-recently-used ready entries are evicted once the entry
//     count exceeds the capacity (in-flight computations are never evicted);
//   - error-transparent: a failed computation is handed to its waiters but
//     never cached, so a job cancelled mid-saturate cannot poison later
//     jobs that share the key.
//
// A process holds one Cache: construct it with NewCache (or
// NewCacheWithStore) and hand it to the run via Config.Cache, or to a
// single compilation via Cache.Compile. Stats reads its counters, which
// Report.Cache reproduces; reuse across processes is the disk tier's job.
//
// With NewCacheWithStore the cache becomes two-tier: the memory LRU reads
// through to a persistent ArtifactStore (internal/cas) and writes behind to
// it, so artifacts survive process restarts and are shared between
// concurrent processes (CLI runs sharing one -cache-dir). The singleflight
// guarantee spans both tiers — concurrent requesters of one key share a
// single disk read or compute. Errors are
// never persisted, exactly as they are never memory-cached; a corrupt or
// unreadable disk entry counts as a disk error and falls through to
// compute, so the disk tier can degrade but never poison a result.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netlist"
)

// cacheStage identifies which pipeline stage an entry (and its statistics)
// belongs to.
type cacheStage int

const (
	stageParsed cacheStage = iota
	stageAnalyzed
	stageSaturated
)

// stageName maps a cacheStage to its ArtifactStore stage directory.
var stageName = [3]string{"parsed", "analyzed", "saturated"}

// StageStats counts cache outcomes for one pipeline stage, split by tier.
// Hits is the memory tier: a lookup that found an in-memory entry
// (including one still being computed or disk-read by another job — the
// requester shares the result without redoing the work). DiskHits is a
// lookup served by decoding a persistent store entry. Misses is a lookup
// that had to compute the stage. A failed compute counts as a miss.
type StageStats struct {
	Hits      int64 `json:"memory_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// CacheStats reports a cache's per-stage effectiveness; `merced -sweep
// -cache-stats` surfaces it.
type CacheStats struct {
	Parsed    StageStats `json:"parsed"`
	Analyzed  StageStats `json:"analyzed"`
	Saturated StageStats `json:"saturated"`
	// Entries and Capacity describe the cache's current occupancy and bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// DiskErrors counts persistent-tier failures the cache absorbed —
	// quarantined corrupt entries, undecodable payloads, failed
	// write-behinds.
	DiskErrors int64 `json:"disk_errors,omitempty"`
}

// DefaultCacheEntries bounds every artifact cache: comfortably above the
// distinct (circuit, seed) prefixes of a Tables 10-12 sweep, small enough
// that pathological matrices stay bounded.
const DefaultCacheEntries = 256

type cacheEntry struct {
	// ready is closed once val/err are final.
	ready   chan struct{}
	val     any
	err     error
	stage   cacheStage
	lastUse int64
}

// ArtifactStore is the persistent tier under the memory LRU: a durable
// byte store addressed by (stage, logical key, schema version).
// internal/cas.Store implements it. Get returns ok=false with a nil error
// on a clean miss (no entry, or an entry written under a different schema
// version); an error means the entry existed but could not be trusted —
// the cache counts it and recomputes. Implementations must be safe for
// concurrent use.
type ArtifactStore interface {
	Get(stage, key string, schema int) (payload []byte, ok bool, err error)
	Put(stage, key string, schema int, payload []byte) error
}

// stageCodec translates one stage's in-memory artifact to and from its
// persistent payload. Codecs for the analyzed and saturated stages close
// over the upstream artifact the decoder attaches to.
type stageCodec struct {
	schema int
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

// parsedCodec persists core.Parsed artifacts of built-in circuits (see
// Cache.Parse).
var parsedCodec = &stageCodec{
	schema: core.ParsedSchemaVersion,
	encode: func(v any) ([]byte, error) { return v.(*core.Parsed).Encode() },
	decode: func(b []byte) (any, error) { return core.DecodeParsed(b) },
}

// analyzedCodec persists core.Analyzed artifacts built from p.
func analyzedCodec(p *core.Parsed) *stageCodec {
	return &stageCodec{
		schema: core.AnalyzedSchemaVersion,
		encode: func(v any) ([]byte, error) { return v.(*core.Analyzed).Encode() },
		decode: func(b []byte) (any, error) { return core.DecodeAnalyzed(p, b) },
	}
}

// saturatedCodec persists core.Saturated artifacts built from a.
func saturatedCodec(a *core.Analyzed) *stageCodec {
	return &stageCodec{
		schema: core.SaturatedSchemaVersion,
		encode: func(v any) ([]byte, error) { return v.(*core.Saturated).Encode() },
		decode: func(b []byte) (any, error) { return core.DecodeSaturated(a, b) },
	}
}

// Cache is the bounded singleflight artifact store. The zero value is not
// usable; call NewCache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	gen     int64
	entries map[string]*cacheEntry
	stats   [3]StageStats

	// store is the optional persistent tier; nil means memory-only.
	store ArtifactStore
	// writes tracks in-flight write-behind goroutines; Flush waits on it.
	writes sync.WaitGroup
	// diskErrors counts store failures (cumulative; see CacheStats).
	diskErrors atomic.Int64
}

// NewCache returns an empty memory-only cache bounded to
// DefaultCacheEntries entries.
func NewCache() *Cache { return newCache(DefaultCacheEntries) }

// newCache returns an empty memory-only cache bounded to capacity entries;
// the package's tests use it to reach eviction with a tiny bound.
func newCache(capacity int) *Cache {
	return &Cache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// NewCacheWithStore returns a two-tier cache: the memory LRU reads through
// to store and writes freshly computed artifacts behind to it. A nil store
// is equivalent to NewCache.
func NewCacheWithStore(store ArtifactStore) *Cache {
	c := NewCache()
	c.store = store
	return c
}

// Flush waits for every pending write-behind to land in the persistent
// store. Call it before process exit (and before inspecting the store);
// artifacts are only guaranteed durable after Flush returns.
func (c *Cache) Flush() { c.writes.Wait() }

// getOrCompute returns the cached value for key: memory, then (when both a
// store and a codec are present) the persistent tier, then fn. The entry is
// inserted before either slow path runs, so the singleflight guarantee
// spans disk reads and computes alike. computed reports whether fn ran —
// callers use it to attribute the stage's cost to exactly one job; a disk
// hit is not a compute, so phase timings are never attributed to it. On
// error the entry is dropped so a later request recomputes.
func (c *Cache) getOrCompute(st cacheStage, key string, codec *stageCodec, fn func() (any, error)) (val any, computed bool, err error) {
	c.mu.Lock()
	c.gen++
	if e, ok := c.entries[key]; ok {
		e.lastUse = c.gen
		c.stats[st].Hits++
		c.mu.Unlock()
		<-e.ready
		return e.val, false, e.err
	}
	e := &cacheEntry{ready: make(chan struct{}), stage: st, lastUse: c.gen}
	c.entries[key] = e
	c.mu.Unlock()

	// Persistent tier: a decodable entry fills the memory tier without
	// computing. Any store or decode failure counts and falls through — the
	// disk tier may degrade but never fails a lookup.
	fromDisk := false
	if c.store != nil && codec != nil {
		if payload, ok, derr := c.store.Get(stageName[st], key, codec.schema); derr != nil {
			c.diskErrors.Add(1)
		} else if ok {
			if v, decErr := codec.decode(payload); decErr == nil {
				e.val = v
				fromDisk = true
			} else {
				c.diskErrors.Add(1)
			}
		}
	}
	if !fromDisk {
		e.val, e.err = fn()
	}
	close(e.ready)

	c.mu.Lock()
	if fromDisk {
		c.stats[st].DiskHits++
	} else {
		c.stats[st].Misses++
	}
	if e.err != nil {
		// Never cache failures: a context-cancelled computation must not
		// decide the fate of jobs that arrive with a live context.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		c.evictLocked()
	}
	c.mu.Unlock()

	// Write-behind: persist a fresh compute without holding up the job.
	// Errors are never written, and a failed write only counts — the next
	// cold process recomputes.
	if !fromDisk && e.err == nil && c.store != nil && codec != nil {
		c.writes.Add(1)
		go func() {
			defer c.writes.Done()
			payload, encErr := codec.encode(e.val)
			if encErr != nil {
				c.diskErrors.Add(1)
				return
			}
			if putErr := c.store.Put(stageName[st], key, codec.schema, payload); putErr != nil {
				c.diskErrors.Add(1)
			}
		}()
	}
	return e.val, !fromDisk, e.err
}

// evictLocked drops least-recently-used ready entries until the bound
// holds. In-flight entries are skipped — evicting one would strand
// waiters.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.cap {
		var victimKey string
		var victim *cacheEntry
		//detlint:ordered lastUse values come from a monotonic generation counter and are unique, so the argmin is tie-free
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // still computing
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return // everything in flight; bound temporarily exceeded
		}
		delete(c.entries, victimKey)
		c.stats[victim.stage].Evictions++
	}
}

// Stats snapshots the counters — every hit, miss, and eviction since the
// cache was constructed.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Parsed:     c.stats[stageParsed],
		Analyzed:   c.stats[stageAnalyzed],
		Saturated:  c.stats[stageSaturated],
		Entries:    len(c.entries),
		Capacity:   c.cap,
		DiskErrors: c.diskErrors.Load(),
	}
}

// Compile runs one compilation through the shared-prefix cache: the
// parse/analyze/saturate stages hit (or fill) the cache exactly as sweep
// jobs do, and core.CompileFrom finishes the per-job suffix. name resolves
// through load (LoadCircuit when nil). It is the single-job funnel the
// merced report, cover and lint modes use, so under -cache-dir a one-off
// compilation shares prefixes with earlier sweeps.
//
// Result.Elapsed covers the whole call — load included on a cold cache —
// matching core.Compile's accounting for the uncached case.
func (c *Cache) Compile(ctx context.Context, name string, load func(string) (*netlist.Circuit, error), opt core.Options) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p, computed, err := c.Parse(ctx, name, load)
	if err != nil {
		return nil, err
	}
	r, err := compileStaged(ctx, p, c, opt)
	if r != nil && err == nil {
		if computed {
			r.Phases.Add(p.Phases())
		}
		r.Elapsed = time.Since(start)
	}
	return r, err
}

// Parse returns the parsed artifact of the named circuit, loading it
// through load (LoadCircuit when nil) on a miss; computed reports whether
// this call did the parse. The stage is keyed by name, which pins the
// content only for a built-in benchmark resolved by LoadCircuit: this
// build generates it, so only that parse is persisted. A netlist file, or
// whatever a caller's load returns, can change between processes, so its
// parse stays in the memory tier; the analyze and saturate stages below it
// are keyed by content and persist either way.
func (c *Cache) Parse(ctx context.Context, name string, load func(string) (*netlist.Circuit, error)) (p *core.Parsed, computed bool, err error) {
	var codec *stageCodec
	if load == nil {
		load = LoadCircuit
		if !isNetlistFile(name) {
			codec = parsedCodec
		}
	}
	v, computed, err := cacheStagedArtifact(ctx, c, stageParsed, "parsed:"+name, codec, func() (any, error) {
		return core.Parse(ctx, name, load)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*core.Parsed), computed, nil
}
