package sweep

// Deterministic sharding: a sweep's expanded job list is partitioned by
// stable global job index (round-robin: shard i of N takes jobs with
// index ≡ i-1 mod N), each shard runs its slice and emits a
// self-describing ShardReport, and MergeShards reassembles N of them into
// a Report byte-identical to the unsharded run.
//
// The protocol's safety rests on the universe fingerprint: every shard
// pins the SHA-256 of the full expanded job list it was cut from, so a
// merge of shards produced from different matrices, different configs, or
// different render options fails loudly instead of splicing unrelated
// results. Under no_timing the shard files themselves are byte-
// deterministic (wall-clock fields are dropped at write time), which is
// what lets CI diff a 3-way sharded run against the unsharded golden.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// ShardFormatVersion is the shard-report schema this build reads and
// writes. Version 2 dropped the campaign report's lane-width field, so a
// version 1 document no longer decodes byte-for-byte; version 3 added its
// Unexcited counter, which a version 2 reader refuses as an unknown field.
const ShardFormatVersion = 3

// Shard names one 1-based slice of a job universe: shard Index of Count.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ParseShard parses the CLI form "i/N".
func ParseShard(s string) (Shard, error) {
	var sh Shard
	if n, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil || n != 2 {
		return Shard{}, fmt.Errorf("sweep: shard spec %q: want i/N (e.g. 1/3)", s)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

func (sh Shard) String() string { return fmt.Sprintf("%d/%d", sh.Index, sh.Count) }

// Validate checks the 1-based invariant 1 <= Index <= Count.
func (sh Shard) Validate() error {
	if sh.Count < 1 {
		return fmt.Errorf("sweep: shard count must be >= 1 (got %d)", sh.Count)
	}
	if sh.Index < 1 || sh.Index > sh.Count {
		return fmt.Errorf("sweep: shard index must be in 1..%d (got %d)", sh.Count, sh.Index)
	}
	return nil
}

// Select returns this shard's slice of the universe — jobs whose global
// index is ≡ Index-1 mod Count — together with those global indices.
// Round-robin keeps shards balanced even when the matrix is ordered
// circuit-major (contiguous slices would give one shard all the big
// circuits).
func (sh Shard) Select(universe []Job) (jobs []Job, globals []int) {
	for i := sh.Index - 1; i < len(universe); i += sh.Count {
		jobs = append(jobs, universe[i])
		globals = append(globals, i)
	}
	return jobs, globals
}

// UniverseHash fingerprints an expanded job list: the SHA-256 of its
// newline-delimited canonical JSON encoding. Two universes hash equal iff
// they contain the same jobs in the same order.
func UniverseHash(universe []Job) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, j := range universe {
		enc.Encode(j) //nolint:errcheck // writing to a hash cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ShardUniverse pins the full expanded job list a shard was cut from.
type ShardUniverse struct {
	Jobs   int    `json:"jobs"`
	SHA256 string `json:"sha256"`
}

// ShardConfig is the result-affecting sweep configuration, restated in
// every shard so a merge can refuse to splice runs that would not have
// produced identical per-job results.
type ShardConfig struct {
	NoRetimeSolver bool   `json:"no_retime_solver,omitempty"`
	Lint           bool   `json:"lint,omitempty"`
	Coverage       bool   `json:"coverage,omitempty"`
	MaxPatterns    uint64 `json:"max_patterns,omitempty"`
}

// ShardOutput carries the render options the unsharded run would have
// used; the merge renders the reassembled report with exactly these.
type ShardOutput struct {
	Format     string `json:"format"`
	NoTiming   bool   `json:"no_timing,omitempty"`
	CacheStats bool   `json:"cache_stats,omitempty"`
	Metrics    bool   `json:"metrics,omitempty"`
}

// ShardJobResult is one job's outcome inside a shard report: the global
// index locating it in the universe plus the serializable JobResult
// fields. Timing fields are present only when the shard ran with timing
// enabled.
type ShardJobResult struct {
	Index     int                   `json:"index"`
	Job       Job                   `json:"job"`
	Error     string                `json:"error,omitempty"`
	Clusters  int                   `json:"clusters,omitempty"`
	MaxInputs int                   `json:"max_inputs,omitempty"`
	Areas     core.AreaReport       `json:"areas"`
	Kernels   core.KernelCounters   `json:"kernels"`
	Coverage  *fault.CampaignReport `json:"coverage,omitempty"`
	ElapsedNS int64                 `json:"elapsed_ns,omitempty"`
	Phases    *core.Phases          `json:"phases_ns,omitempty"`
}

// ShardReport is one shard's self-describing output document.
type ShardReport struct {
	V        int              `json:"v"`
	Shard    Shard            `json:"shard"`
	Universe ShardUniverse    `json:"universe"`
	Config   ShardConfig      `json:"config"`
	Output   ShardOutput      `json:"output"`
	Workers  int              `json:"workers"`
	WallNS   int64            `json:"wall_ns,omitempty"`
	Cache    CacheStats       `json:"cache"`
	Jobs     []ShardJobResult `json:"jobs"`
}

// BuildShardReport assembles the shard document for a finished slice run.
// universe is the full expanded job list; globals maps rep.Jobs[i] to its
// universe index (as returned by Select). Under out.NoTiming every
// wall-clock field is dropped, making the document byte-deterministic.
func BuildShardReport(sh Shard, universe []Job, globals []int, rep *Report, cfg ShardConfig, out ShardOutput) *ShardReport {
	sr := &ShardReport{
		V:        ShardFormatVersion,
		Shard:    sh,
		Universe: ShardUniverse{Jobs: len(universe), SHA256: UniverseHash(universe)},
		Config:   cfg,
		Output:   out,
		Workers:  rep.Stats.Workers,
		Cache:    rep.Cache,
		Jobs:     make([]ShardJobResult, len(rep.Jobs)),
	}
	if !out.NoTiming {
		sr.WallNS = int64(rep.Stats.Wall)
	}
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		e := ShardJobResult{
			Index:     globals[i],
			Job:       jr.Job,
			Clusters:  jr.Clusters,
			MaxInputs: jr.MaxInputs,
			Areas:     jr.Areas,
			Kernels:   jr.Kernels,
			Coverage:  jr.Coverage,
		}
		if jr.Err != nil {
			e.Error = jr.Err.Error()
		}
		if !out.NoTiming {
			e.ElapsedNS = int64(jr.Elapsed)
			ph := jr.Phases
			e.Phases = &ph
		} else if e.Coverage != nil && e.Coverage.Elapsed != 0 {
			// CampaignReport.Elapsed is observability metadata; drop it so
			// the shard document stays byte-deterministic under no_timing.
			cov := *e.Coverage
			cov.Elapsed = 0
			e.Coverage = &cov
		}
		sr.Jobs[i] = e
	}
	return sr
}

// WriteJSON renders the shard document as indented JSON.
func (sr *ShardReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sr)
}

// ReadShardReport decodes and sanity-checks one shard document.
func ReadShardReport(r io.Reader) (*ShardReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sr ShardReport
	if err := dec.Decode(&sr); err != nil {
		return nil, fmt.Errorf("sweep: decoding shard report: %w", err)
	}
	if sr.V != ShardFormatVersion {
		return nil, fmt.Errorf("sweep: shard report version %d (this build speaks %d)", sr.V, ShardFormatVersion)
	}
	if err := sr.Shard.Validate(); err != nil {
		return nil, err
	}
	return &sr, nil
}

// MergeShards reassembles a full sweep Report from the complete set of
// shard documents of one run, in any order. It validates that the shards
// agree on the universe, config, and output; that every shard index
// 1..Count is present exactly once; and that every universe job slot is
// filled exactly once. The merged report — rendered with the carried
// ShardOutput — is byte-identical to the unsharded run under no_timing
// (wall-clock aggregates are sums across shards, so with timing on they
// differ from a single-process run by construction).
func MergeShards(shards []*ShardReport) (*Report, ShardOutput, error) {
	var out ShardOutput
	if len(shards) == 0 {
		return nil, out, errors.New("sweep: merge: no shard reports")
	}
	ref := shards[0]
	out = ref.Output
	seen := make(map[int]bool, len(shards))
	for _, sr := range shards {
		if sr.Shard.Count != ref.Shard.Count {
			return nil, out, fmt.Errorf("sweep: merge: shard %s disagrees with %s on shard count", sr.Shard, ref.Shard)
		}
		if seen[sr.Shard.Index] {
			return nil, out, fmt.Errorf("sweep: merge: shard %s supplied twice", sr.Shard)
		}
		seen[sr.Shard.Index] = true
		if sr.Universe != ref.Universe {
			return nil, out, fmt.Errorf("sweep: merge: shard %s was cut from a different universe (%d jobs, %.12s…) than shard %s (%d jobs, %.12s…)",
				sr.Shard, sr.Universe.Jobs, sr.Universe.SHA256, ref.Shard, ref.Universe.Jobs, ref.Universe.SHA256)
		}
		if sr.Config != ref.Config {
			return nil, out, fmt.Errorf("sweep: merge: shard %s ran under a different config than shard %s", sr.Shard, ref.Shard)
		}
		if sr.Output != ref.Output {
			return nil, out, fmt.Errorf("sweep: merge: shard %s ran with different output options than shard %s", sr.Shard, ref.Shard)
		}
	}
	if len(shards) != ref.Shard.Count {
		missing := make([]int, 0, ref.Shard.Count)
		for i := 1; i <= ref.Shard.Count; i++ {
			if !seen[i] {
				missing = append(missing, i)
			}
		}
		return nil, out, fmt.Errorf("sweep: merge: have %d of %d shards (missing indices %v)", len(shards), ref.Shard.Count, missing)
	}
	// The universe size comes from the documents, so check it against the
	// job entries before it sizes any allocation. With as many entries as
	// jobs and no index supplied twice, every job is filled below.
	entries := 0
	for _, sr := range shards {
		entries += len(sr.Jobs)
	}
	if ref.Universe.Jobs != entries {
		return nil, out, fmt.Errorf("sweep: merge: universe declares %d jobs but the shards carry %d job entries", ref.Universe.Jobs, entries)
	}

	results := make([]JobResult, ref.Universe.Jobs)
	filled := make([]bool, ref.Universe.Jobs)
	var workers int
	var wall time.Duration
	var cache CacheStats
	for _, sr := range shards {
		if sr.Workers > workers {
			workers = sr.Workers
		}
		wall += time.Duration(sr.WallNS)
		addCacheStats(&cache, sr.Cache)
		for i := range sr.Jobs {
			e := &sr.Jobs[i]
			if e.Index < 0 || e.Index >= len(results) {
				return nil, out, fmt.Errorf("sweep: merge: shard %s job index %d outside universe 0..%d", sr.Shard, e.Index, len(results)-1)
			}
			if filled[e.Index] {
				return nil, out, fmt.Errorf("sweep: merge: universe job %d supplied twice", e.Index)
			}
			filled[e.Index] = true
			jr := JobResult{
				Job:       e.Job,
				Clusters:  e.Clusters,
				MaxInputs: e.MaxInputs,
				Areas:     e.Areas,
				Kernels:   e.Kernels,
				Coverage:  e.Coverage,
				Elapsed:   time.Duration(e.ElapsedNS),
			}
			if e.Error != "" {
				jr.Err = errors.New(e.Error)
			}
			if e.Phases != nil {
				jr.Phases = *e.Phases
			}
			results[e.Index] = jr
		}
	}
	rep := &Report{Jobs: results}
	rep.Stats = aggregate(results, workers, wall)
	rep.Cache = cache
	return rep, out, nil
}

// addCacheStats accumulates src into dst, summing every tier counter.
// Entries and capacity sum too: the merged figure describes the union of
// the shards' memory tiers, not any single process.
func addCacheStats(dst *CacheStats, src CacheStats) {
	addStage := func(d *StageStats, s StageStats) {
		d.Hits += s.Hits
		d.DiskHits += s.DiskHits
		d.Misses += s.Misses
		d.Evictions += s.Evictions
	}
	addStage(&dst.Parsed, src.Parsed)
	addStage(&dst.Analyzed, src.Analyzed)
	addStage(&dst.Saturated, src.Saturated)
	dst.Entries += src.Entries
	dst.Capacity += src.Capacity
	dst.DiskErrors += src.DiskErrors
}

// RenderOptions translates the carried shard output into render options.
func (out ShardOutput) RenderOptions() RenderOptions {
	return RenderOptions{Timing: !out.NoTiming, CacheStats: out.CacheStats, Metrics: out.Metrics}
}
