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
//     exactly once no matter how many workers (or server requests) race for
//     it;
//   - bounded: least-recently-used ready entries are evicted once the entry
//     count exceeds the capacity (in-flight computations are never evicted);
//   - error-transparent: a failed computation is handed to its waiters but
//     never cached, so a job cancelled mid-saturate cannot poison later
//     jobs that share the key.
//
// A Cache used to be private to one sweep.Run; the serve daemon promotes it
// to process lifetime by constructing one with NewCache and passing it to
// every run via Config.Cache (and to single compilations via
// Cache.Compile). Cumulative counters are read with Stats; each run
// additionally tracks its own hit/miss/eviction deltas so Report.Cache
// describes only that run's traffic.
//
// With NewCacheWithStore the cache becomes two-tier: the memory LRU reads
// through to a persistent ArtifactStore (internal/cas) and writes behind to
// it, so artifacts survive process restarts and are shared between
// concurrent processes (shards of one sweep, a serve daemon next to CLI
// runs). The singleflight guarantee spans both tiers — concurrent
// requesters of one key share a single disk read or compute. Errors are
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
// -cache-stats` surfaces a run's deltas and the serve daemon's /metrics
// endpoint the process-lifetime totals.
type CacheStats struct {
	Parsed    StageStats `json:"parsed"`
	Analyzed  StageStats `json:"analyzed"`
	Saturated StageStats `json:"saturated"`
	// Entries and Capacity describe the cache's current occupancy and bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// DiskErrors counts persistent-tier failures the cache absorbed —
	// quarantined corrupt entries, undecodable payloads, failed
	// write-behinds. Always the cache's cumulative total (not a run delta):
	// a disk problem is a store health signal, not a property of one run.
	DiskErrors int64 `json:"disk_errors,omitempty"`
}

// DefaultCacheEntries bounds the artifact cache when the capacity is unset:
// comfortably above the distinct (circuit, seed) prefixes of a Tables 10-12
// sweep, small enough that pathological matrices stay bounded.
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

// parsedCodec persists core.Parsed artifacts. Note the parsed stage is
// keyed by circuit reference ("parsed:<name>"), not content — editing a
// .bench file under a warm cache directory serves the old parse until the
// entry is evicted or the directory cleared (documented in DESIGN.md §14).
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
// usable; call NewCache. A Cache outlives any single run: the serve daemon
// keeps one for the whole process so repeat circuits hit the Saturated
// prefix instantly, across requests.
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

// NewCache returns an empty memory-only cache bounded to capacity entries
// (DefaultCacheEntries when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	return &Cache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// NewCacheWithStore returns a two-tier cache: the memory LRU reads through
// to store and writes freshly computed artifacts behind to it. A nil store
// is equivalent to NewCache.
func NewCacheWithStore(capacity int, store ArtifactStore) *Cache {
	c := NewCache(capacity)
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
// error the entry is dropped so a later request recomputes. When per is
// non-nil, the outcome is counted there as well as in the cumulative
// stats; per is written only under the cache mutex, so one tracker may be
// shared by every worker of a run.
func (c *Cache) getOrCompute(st cacheStage, key string, per *[3]StageStats, codec *stageCodec, fn func() (any, error)) (val any, computed bool, err error) {
	c.mu.Lock()
	c.gen++
	if e, ok := c.entries[key]; ok {
		e.lastUse = c.gen
		c.stats[st].Hits++
		if per != nil {
			per[st].Hits++
		}
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
		if per != nil {
			per[st].DiskHits++
		}
	} else {
		c.stats[st].Misses++
		if per != nil {
			per[st].Misses++
		}
	}
	if e.err != nil {
		// Never cache failures: a context-cancelled computation must not
		// decide the fate of jobs that arrive with a live context.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		c.evictLocked(per)
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
// holds, attributing the evictions to the run that inserted past it.
// In-flight entries are skipped — evicting one would strand waiters.
func (c *Cache) evictLocked(per *[3]StageStats) {
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
		if per != nil {
			per[victim.stage].Evictions++
		}
	}
}

// Stats snapshots the cumulative counters — every hit, miss, and eviction
// since the cache was constructed, across all runs that shared it.
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

// statsFor assembles a run-scoped CacheStats: the run's own per-stage
// deltas over the cache's current occupancy. With a run-private cache the
// result equals Stats().
func (c *Cache) statsFor(per *[3]StageStats) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Parsed:     per[stageParsed],
		Analyzed:   per[stageAnalyzed],
		Saturated:  per[stageSaturated],
		Entries:    len(c.entries),
		Capacity:   c.cap,
		DiskErrors: c.diskErrors.Load(),
	}
}

// Compile runs one compilation through the shared-prefix cache: the
// parse/analyze/saturate stages hit (or fill) the cache exactly as sweep
// jobs do, and core.CompileFrom finishes the per-job suffix. name resolves
// through load (LoadCircuit when nil). It is the single-job funnel the
// jobspec runner uses for compile and cover jobs, so a serve daemon's
// one-off compilations share prefixes with its sweeps.
//
// Result.Elapsed covers the whole call — load included on a cold cache —
// matching core.Compile's accounting for the uncached case.
func (c *Cache) Compile(ctx context.Context, name string, load func(string) (*netlist.Circuit, error), opt core.Options) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if load == nil {
		load = LoadCircuit
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	pv, computed, err := cacheStagedArtifact(ctx, c, stageParsed, "parsed:"+name, nil, parsedCodec, func() (any, error) {
		return core.Parse(ctx, name, load)
	})
	if err != nil {
		return nil, err
	}
	p := pv.(*core.Parsed)
	r, err := compileStaged(ctx, p, c, nil, opt)
	if r != nil && err == nil {
		if computed {
			r.Phases.Add(p.Phases())
		}
		r.Elapsed = time.Since(start)
	}
	return r, err
}
