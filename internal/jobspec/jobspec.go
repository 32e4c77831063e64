// Package jobspec is the versioned job request model behind every merced
// CLI mode that runs the compiler. What used to be three divergent
// ad-hoc shapes — the `-sweep` flag matrix / `-spec` JSON file, the
// `-cover` flag bundle, and the single-compile flags — is one JSON
// document:
//
//	{
//	  "v": 1,
//	  "kind": "sweep",
//	  "sweep": {"circuits": ["all"], "lks": [16, 24]},
//	  "output": {"format": "json", "no_timing": true}
//	}
//
// Every request carries an explicit schema version ("v"); this build
// speaks Version. The versioning policy (DESIGN.md §13): adding an
// optional field is a compatible change within a version, while renaming,
// removing, or changing the meaning of a field bumps the version — except
// for the three "lanes" keys (they never changed a report byte) and
// "output.trace" (no CLI run read it), removed within version 1. The
// decoder rejects unknown fields, so a typo'd key — a removed key, or a
// field from a future version — fails loudly instead of silently
// shrinking an experiment.
//
// Defaulting (Normalize) reproduces the CLI flag defaults exactly: an
// absent lk is 16, an absent beta 50, an absent seed 1, an absent sweep
// matrix the paper's full Tables 10-12 crossing. Validation returns
// *FieldError values whose Path names the offending field in JSON dotted
// form ("sweep.lks[1]"), precise enough for a caller to act on.
package jobspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Version is the jobspec schema version this build reads and writes.
const Version = 1

// Kind selects which job body a Spec carries.
type Kind string

const (
	// KindCompile is a single compilation — the CLI's default report mode.
	KindCompile Kind = "compile"
	// KindSweep is a batch job matrix over the bounded worker pool.
	KindSweep Kind = "sweep"
	// KindCover is a fault-coverage campaign over one circuit's partition.
	KindCover Kind = "cover"
)

// Duration is a time.Duration that marshals as a parseable string
// ("90s", "10m"). JSON numbers are rejected: a bare number is ambiguous
// between seconds and nanoseconds, exactly the mistake a versioned schema
// exists to prevent.
type Duration time.Duration

// MarshalJSON renders the duration in time.Duration.String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// UnmarshalJSON parses a quoted time.ParseDuration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("duration must be a string like \"90s\" or \"10m\", got %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is one versioned job request. Exactly one of Compile, Sweep, or
// Cover is set, matching Kind.
type Spec struct {
	// V is the schema version; this build requires Version (1).
	V int `json:"v"`
	// Kind selects the job body: compile, sweep, or cover.
	Kind Kind `json:"kind"`
	// Timeout, when positive, deadlines the whole job; the deadline
	// propagates as context cancellation into every pipeline phase
	// (the CLI's -timeout).
	Timeout Duration `json:"timeout,omitempty"`

	Compile *Compile `json:"compile,omitempty"`
	Sweep   *Sweep   `json:"sweep,omitempty"`
	Cover   *Cover   `json:"cover,omitempty"`

	// Output selects the report rendering; Normalize materializes it.
	Output *Output `json:"output,omitempty"`
}

// Compile is the single-compilation body (the CLI's default mode).
type Compile struct {
	// Circuit names a built-in benchmark (s27 or a Table 9 circuit) or a
	// .bench netlist path.
	Circuit string `json:"circuit"`
	// LK is the input-size constraint l_k; 0 means the CLI default 16.
	LK int `json:"lk,omitempty"`
	// Beta is the Eq. (6) SCC cut-budget multiplier; 0 means the paper's 50.
	Beta int `json:"beta,omitempty"`
	// Seed drives every stochastic step; 0 means the CLI default 1.
	Seed int64 `json:"seed,omitempty"`
	// NoRetimeSolver skips the Leiserson-Saxe solver (per-SCC accounting
	// only), mirroring -no-retime-solver.
	NoRetimeSolver bool `json:"no_retime_solver,omitempty"`
	// MinPeriod also reports the minimum clock period achievable by
	// retiming (unit delays), mirroring -min-period.
	MinPeriod bool `json:"min_period,omitempty"`
	// Verbose adds the per-cluster table to the report, mirroring -v.
	Verbose bool `json:"verbose,omitempty"`
}

// Sweep is the batch body: a job matrix plus pool configuration.
type Sweep struct {
	// Circuits lists built-in names, .bench paths, or the aliases "all"
	// (s27 plus every Table 9 circuit) and "small" (the fast subset);
	// empty means the CLI default ["all"].
	Circuits []string `json:"circuits,omitempty"`
	// LKs defaults to the paper's [16, 24].
	LKs []int `json:"lks,omitempty"`
	// Betas defaults to the paper's [50].
	Betas []int `json:"betas,omitempty"`
	// Seeds defaults to [1].
	Seeds []int64 `json:"seeds,omitempty"`
	// Jobs are explicit (circuit, lk, beta, seed) tuples appended after
	// the matrix expansion, in order.
	Jobs []Job `json:"jobs,omitempty"`

	// Workers bounds the pool; 0 means NumCPU.
	Workers int `json:"workers,omitempty"`
	// JobTimeout, when positive, deadlines each job individually.
	JobTimeout Duration `json:"job_timeout,omitempty"`
	// NoRetimeSolver mirrors -no-retime-solver for every job.
	NoRetimeSolver bool `json:"no_retime_solver,omitempty"`
	// Lint gates every job on the design rules (-lint -sweep).
	Lint bool `json:"lint,omitempty"`
	// NoCache disables shared-prefix artifact reuse (-no-cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Coverage fault-simulates each job's partition (-coverage).
	Coverage bool `json:"coverage,omitempty"`
	// MaxPatterns caps each coverage campaign's per-fault pattern budget;
	// 0 means the full pseudo-exhaustive budget.
	MaxPatterns uint64 `json:"max_patterns,omitempty"`

	// Shard, when set, runs only the 1-based shard Index of Count of the
	// expanded job list (partitioned by stable job index) and emits a
	// self-describing shard report instead of a sweep report; `merced
	// merge` reassembles the full set into the unsharded report. Adding
	// this optional field is a compatible change within version 1 (see the
	// package versioning policy).
	Shard *ShardSpec `json:"shard,omitempty"`
}

// ShardSpec selects one shard of a distributed sweep: shard Index of
// Count, 1-based (the CLI form is "-shard index/count").
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Job is one explicit sweep coordinate.
type Job struct {
	Circuit string `json:"circuit"`
	LK      int    `json:"lk"`
	// Beta 0 means the paper's 50, matching the matrix default.
	Beta int   `json:"beta,omitempty"`
	Seed int64 `json:"seed,omitempty"`
}

// Cover is the fault-coverage campaign body.
type Cover struct {
	// Circuit names a built-in benchmark or a .bench netlist path.
	Circuit string `json:"circuit"`
	// LK, Beta, Seed follow the compile defaults (16, 50, 1).
	LK   int   `json:"lk,omitempty"`
	Beta int   `json:"beta,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// NoRetimeSolver mirrors -no-retime-solver for the compilation.
	NoRetimeSolver bool `json:"no_retime_solver,omitempty"`
	// Workers bounds the campaign pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MaxPatterns caps the per-fault pattern budget (-max-patterns).
	MaxPatterns uint64 `json:"max_patterns,omitempty"`
	// NoCollapse disables structural fault-equivalence collapsing.
	NoCollapse bool `json:"no_collapse,omitempty"`
}

// Output selects the report rendering, mirroring the CLI output flags.
type Output struct {
	// Format is text, json, or csv; empty means text. Compile jobs render
	// only text.
	Format string `json:"format,omitempty"`
	// NoTiming omits wall-clock fields for byte-reproducible output.
	NoTiming bool `json:"no_timing,omitempty"`
	// CacheStats reports the run's artifact-cache counters (sweep only).
	CacheStats bool `json:"cache_stats,omitempty"`
	// Metrics appends the deterministic kernel-counter table/object.
	Metrics bool `json:"metrics,omitempty"`
	// Undetected lists surviving faults in the cover text report.
	Undetected bool `json:"undetected,omitempty"`
}

// FieldError is a validation failure naming the offending field by its
// JSON path, e.g. "sweep.lks[1]" or "output.format".
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return "jobspec: " + e.Path + ": " + e.Msg }

func fieldErrf(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Decode reads one spec document, rejecting unknown fields and trailing
// data. It does not normalize or validate; Parse does all three.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobspec: decoding spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, errors.New("jobspec: trailing data after the spec document")
	}
	return &s, nil
}

// Parse is Decode followed by Normalize and Validate in one call.
func Parse(r io.Reader) (*Spec, error) {
	s, err := Decode(r)
	if err != nil {
		return nil, err
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Normalize fills absent fields with the CLI flag defaults, in place. It
// is idempotent, and a normalized spec round-trips through encode/decode
// unchanged (the stability property the tests pin).
func (s *Spec) Normalize() {
	if s.Output == nil {
		s.Output = &Output{}
	}
	if s.Output.Format == "" {
		s.Output.Format = "text"
	}
	if c := s.Compile; c != nil {
		c.LK, c.Beta, c.Seed = defaultCoords(c.LK, c.Beta, c.Seed)
	}
	if c := s.Cover; c != nil {
		c.LK, c.Beta, c.Seed = defaultCoords(c.LK, c.Beta, c.Seed)
	}
	if sw := s.Sweep; sw != nil {
		if len(sw.Circuits) == 0 {
			sw.Circuits = []string{"all"}
		}
		if len(sw.LKs) == 0 {
			sw.LKs = []int{16, 24}
		}
		if len(sw.Betas) == 0 {
			sw.Betas = []int{50}
		}
		if len(sw.Seeds) == 0 {
			sw.Seeds = []int64{1}
		}
	}
}

// defaultCoords applies the single-job CLI defaults: -lk 16, -beta 50,
// -seed 1. A zero beta selecting the paper's 50 matches the sweep matrix
// semantics (sweep.Job documents the same rule).
func defaultCoords(lk, beta int, seed int64) (int, int, int64) {
	if lk == 0 {
		lk = 16
	}
	if beta == 0 {
		beta = 50
	}
	if seed == 0 {
		seed = 1
	}
	return lk, beta, seed
}

// validFormats is the render formats shared with the CLI -format flag.
var validFormats = map[string]bool{"text": true, "json": true, "csv": true}

// Validate checks a normalized spec and returns the first problem as a
// *FieldError. Call Normalize first (Parse does); unnormalized zero
// values are reported as errors, not defaulted.
func (s *Spec) Validate() error {
	if s.V != Version {
		return fieldErrf("v", "unsupported version %d (this build speaks %d)", s.V, Version)
	}
	switch s.Kind {
	case KindCompile, KindSweep, KindCover:
	case "":
		return fieldErrf("kind", "required (compile, sweep, or cover)")
	default:
		return fieldErrf("kind", "unknown kind %q (want compile, sweep, or cover)", s.Kind)
	}
	if s.Timeout < 0 {
		return fieldErrf("timeout", "must be >= 0 (got %v)", time.Duration(s.Timeout))
	}
	if err := s.validateBodies(); err != nil {
		return err
	}
	return s.validateOutput()
}

// validateBodies checks that exactly the body matching Kind is present and
// well-formed.
func (s *Spec) validateBodies() error {
	bodies := map[Kind]bool{KindCompile: s.Compile != nil, KindSweep: s.Sweep != nil, KindCover: s.Cover != nil}
	for _, kind := range []Kind{KindCompile, KindSweep, KindCover} {
		switch {
		case kind == s.Kind && !bodies[kind]:
			return fieldErrf(string(kind), "body required for kind %q", s.Kind)
		case kind != s.Kind && bodies[kind]:
			return fieldErrf(string(kind), "body present but kind is %q", s.Kind)
		}
	}
	switch s.Kind {
	case KindCompile:
		return validateCoords("compile", s.Compile.Circuit, s.Compile.LK, s.Compile.Beta)
	case KindCover:
		c := s.Cover
		if err := validateCoords("cover", c.Circuit, c.LK, c.Beta); err != nil {
			return err
		}
		if c.Workers < 0 {
			return fieldErrf("cover.workers", "must be >= 0 (got %d)", c.Workers)
		}
	case KindSweep:
		return s.Sweep.validate()
	}
	return nil
}

// validateCoords checks the shared (circuit, lk, beta) rules of the
// single-job bodies under the given path prefix.
func validateCoords(prefix, circuit string, lk, beta int) error {
	if circuit == "" {
		return fieldErrf(prefix+".circuit", "required (a built-in benchmark name or a .bench path)")
	}
	if lk < 1 {
		return fieldErrf(prefix+".lk", "must be >= 1 (got %d)", lk)
	}
	if beta < 0 {
		return fieldErrf(prefix+".beta", "must be >= 0 (got %d)", beta)
	}
	return nil
}

func (sw *Sweep) validate() error {
	for i, c := range sw.Circuits {
		if c == "" {
			return fieldErrf(fmt.Sprintf("sweep.circuits[%d]", i), "empty circuit name")
		}
	}
	for i, lk := range sw.LKs {
		if lk < 1 {
			return fieldErrf(fmt.Sprintf("sweep.lks[%d]", i), "must be >= 1 (got %d)", lk)
		}
	}
	for i, b := range sw.Betas {
		if b < 0 {
			return fieldErrf(fmt.Sprintf("sweep.betas[%d]", i), "must be >= 0 (got %d)", b)
		}
	}
	for i, j := range sw.Jobs {
		if j.Circuit == "" {
			return fieldErrf(fmt.Sprintf("sweep.jobs[%d].circuit", i), "required")
		}
		if j.LK < 1 {
			return fieldErrf(fmt.Sprintf("sweep.jobs[%d].lk", i), "must be >= 1 (got %d)", j.LK)
		}
		if j.Beta < 0 {
			return fieldErrf(fmt.Sprintf("sweep.jobs[%d].beta", i), "must be >= 0 (got %d)", j.Beta)
		}
	}
	if sw.Workers < 0 {
		return fieldErrf("sweep.workers", "must be >= 0 (got %d)", sw.Workers)
	}
	if sw.JobTimeout < 0 {
		return fieldErrf("sweep.job_timeout", "must be >= 0 (got %v)", time.Duration(sw.JobTimeout))
	}
	if sh := sw.Shard; sh != nil {
		if sh.Count < 1 {
			return fieldErrf("sweep.shard.count", "must be >= 1 (got %d)", sh.Count)
		}
		if sh.Index < 1 || sh.Index > sh.Count {
			return fieldErrf("sweep.shard.index", "must be in 1..%d (got %d)", sh.Count, sh.Index)
		}
	}
	return nil
}

func (s *Spec) validateOutput() error {
	out := s.Output
	if !validFormats[out.Format] {
		return fieldErrf("output.format", "unknown format %q (want text, json, or csv)", out.Format)
	}
	if s.Kind == KindCompile && out.Format != "text" {
		return fieldErrf("output.format", "kind %q renders only text", s.Kind)
	}
	if out.CacheStats && s.Kind != KindSweep {
		return fieldErrf("output.cache_stats", "only valid for kind %q", KindSweep)
	}
	if out.Undetected && s.Kind != KindCover {
		return fieldErrf("output.undetected", "only valid for kind %q", KindCover)
	}
	return nil
}
