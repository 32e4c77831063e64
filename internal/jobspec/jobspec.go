// Package jobspec is the versioned request model of a merced sweep: the
// document `merced -sweep -spec` reads, and the shape the `-sweep` flag
// matrix is adapted into, so both forms run through one funnel (Run):
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
// for the removals within version 1 that DESIGN.md §13 lists: keys that
// never changed a report byte, that no entry point read, or that selected
// a duplicate code path. The decoder rejects unknown fields, so a typo'd
// key — a removed key, or a field from a future version — fails loudly
// instead of silently shrinking an experiment.
//
// Defaulting (Normalize) reproduces the CLI flag defaults exactly: an
// absent sweep matrix is the paper's full Tables 10-12 crossing, an absent
// format is text. Validation returns *FieldError values whose Path names
// the offending field in JSON dotted form ("sweep.lks[1]"), precise enough
// for a caller to act on.
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

// Kind names the job body a Spec carries.
type Kind string

// KindSweep is a batch job matrix over the bounded worker pool, the only
// kind this version speaks.
const KindSweep Kind = "sweep"

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

// Spec is one versioned job request.
type Spec struct {
	// V is the schema version; this build requires Version (1).
	V int `json:"v"`
	// Kind names the job body; this build requires KindSweep.
	Kind Kind `json:"kind"`
	// Timeout, when positive, deadlines the whole job; the deadline
	// propagates as context cancellation into every pipeline phase
	// (the CLI's -timeout).
	Timeout Duration `json:"timeout,omitempty"`

	Sweep *Sweep `json:"sweep,omitempty"`

	// Output selects the report rendering; Normalize materializes it.
	Output *Output `json:"output,omitempty"`
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
	// Lint gates every job on the design rules (-lint -sweep).
	Lint bool `json:"lint,omitempty"`
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

// Output selects the report rendering, mirroring the CLI output flags.
type Output struct {
	// Format is text, json, or csv; empty means text.
	Format string `json:"format,omitempty"`
	// NoTiming omits wall-clock fields for byte-reproducible output.
	NoTiming bool `json:"no_timing,omitempty"`
	// CacheStats reports the run's artifact-cache counters.
	CacheStats bool `json:"cache_stats,omitempty"`
	// Metrics appends the deterministic kernel-counter table/object.
	Metrics bool `json:"metrics,omitempty"`
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
// data. It does not normalize or validate: a caller first applies its own
// overrides (the CLI's flags), and Run then normalizes and validates.
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

// validFormats is the render formats shared with the CLI -format flag.
var validFormats = map[string]bool{"text": true, "json": true, "csv": true}

// Validate checks a normalized spec and returns the first problem as a
// *FieldError. Call Normalize first; unnormalized zero values are
// reported as errors, not defaulted.
func (s *Spec) Validate() error {
	if s.V != Version {
		return fieldErrf("v", "unsupported version %d (this build speaks %d)", s.V, Version)
	}
	switch s.Kind {
	case KindSweep:
	case "":
		return fieldErrf("kind", "required (%s)", KindSweep)
	default:
		return fieldErrf("kind", "unknown kind %q (want %s)", s.Kind, KindSweep)
	}
	if s.Timeout < 0 {
		return fieldErrf("timeout", "must be >= 0 (got %v)", time.Duration(s.Timeout))
	}
	if s.Sweep == nil {
		return fieldErrf("sweep", "body required for kind %q", s.Kind)
	}
	if err := s.Sweep.validate(); err != nil {
		return err
	}
	if !validFormats[s.Output.Format] {
		return fieldErrf("output.format", "unknown format %q (want text, json, or csv)", s.Output.Format)
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
