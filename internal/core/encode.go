package core

// Persistent encodings for the shared-prefix artifacts (Parsed, Analyzed,
// Saturated) — the three stages internal/cas stores on disk. Each encoding
// carries a schema version the store pins in its entry header; bump the
// version whenever the byte layout or the semantics of a field change, and
// old entries become clean misses instead of misread state.
//
// Decoders take the upstream artifact rather than re-deriving it: an
// Analyzed entry is only ever read by a caller that already holds (or just
// decoded) the matching Parsed, and threading it through keeps the
// parent pointers and content keys exactly as the constructors build them.
// Derived state that is cheap and deterministic (the graph's name index and
// incidence lists, Parsed's normalization) is rebuilt on decode; state that
// must match the original build byte-for-byte downstream (SCC member order,
// flow vectors) is serialized verbatim.
//
// Phase timings (GraphTime, SaturateTime, …) are deliberately not
// persisted: they describe the build that produced the artifact, and a
// disk hit did not do that work. Decoded artifacts report zero timings,
// exactly like a memory-tier cache hit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/netlist"
)

// Schema versions of the persistent artifact encodings, pinned in every CAS
// entry header. Bump on any change to the corresponding payload layout, or
// to the decisions that fill it: SaturatedSchemaVersion went to 2 when
// nodes without out-nets left the Saturate heap, so that entries written
// by older builds miss cleanly instead of serving stale flows.
const (
	ParsedSchemaVersion    = 1
	AnalyzedSchemaVersion  = 1
	SaturatedSchemaVersion = 2
)

// parsedWire is the Parsed payload: the canonical .bench serialisation plus
// the circuit name, which WriteBench does not round-trip (ParseBench takes
// the name as a parameter).
type parsedWire struct {
	Name  string `json:"name"`
	Bench string `json:"bench"`
}

// Encode serializes the artifact for persistent storage at
// ParsedSchemaVersion.
func (p *Parsed) Encode() ([]byte, error) {
	var b bytes.Buffer
	if err := p.c.WriteBench(&b); err != nil {
		return nil, fmt.Errorf("core: encoding parsed artifact: %w", err)
	}
	return json.Marshal(parsedWire{Name: p.c.Name, Bench: b.String()})
}

// DecodeParsed reconstructs a Parsed artifact from its Encode bytes. The
// canonical .bench text is re-parsed and re-normalized, so the decoded
// artifact's content key equals the original's by construction.
func DecodeParsed(data []byte) (*Parsed, error) {
	var w parsedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decoding parsed artifact: %w", err)
	}
	c, err := netlist.ParseBench(w.Name, strings.NewReader(w.Bench))
	if err != nil {
		return nil, fmt.Errorf("core: decoding parsed artifact: %w", err)
	}
	return NewParsed(c)
}

// analyzedWire is the Analyzed payload. The SCC analysis is serialized
// verbatim — in particular Members keeps Tarjan's emission order, which
// downstream phases iterate, so deriving it from Comp on decode could
// change results.
type analyzedWire struct {
	Nodes []graph.Node   `json:"nodes"`
	Nets  []graph.Net    `json:"nets"`
	SCC   *graph.SCCInfo `json:"scc"`
}

// Encode serializes the artifact for persistent storage at
// AnalyzedSchemaVersion.
func (a *Analyzed) Encode() ([]byte, error) {
	return json.Marshal(analyzedWire{Nodes: a.g.Nodes, Nets: a.g.Nets, SCC: a.scc})
}

// DecodeAnalyzed reconstructs an Analyzed artifact from its Encode bytes,
// attached to the Parsed artifact it was built from. Timings are zero: a
// decode is a cache hit, not an analysis.
func DecodeAnalyzed(p *Parsed, data []byte) (*Analyzed, error) {
	if p == nil {
		return nil, fmt.Errorf("core: decoding analyzed artifact: nil parsed artifact")
	}
	var w analyzedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decoding analyzed artifact: %w", err)
	}
	if w.SCC == nil {
		return nil, fmt.Errorf("core: decoding analyzed artifact: missing scc")
	}
	return &Analyzed{parsed: p, g: graph.Assemble(w.Nodes, w.Nets), scc: w.SCC}, nil
}

// saturatedWire is the Saturated payload: the resolved flow configuration
// (it is part of the content key, restated for self-description) and the
// full saturation state. JSON round-trips float64 exactly, so the decoded
// vectors are bit-identical to the originals.
type saturatedWire struct {
	Config flow.Config  `json:"config"`
	Result *flow.Result `json:"result"`
}

// Encode serializes the artifact for persistent storage at
// SaturatedSchemaVersion.
func (s *Saturated) Encode() ([]byte, error) {
	return json.Marshal(saturatedWire{Config: s.cfg, Result: s.res})
}

// DecodeSaturated reconstructs a Saturated artifact from its Encode bytes,
// attached to the Analyzed artifact it was built from.
func DecodeSaturated(a *Analyzed, data []byte) (*Saturated, error) {
	if a == nil {
		return nil, fmt.Errorf("core: decoding saturated artifact: nil analyzed artifact")
	}
	var w saturatedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decoding saturated artifact: %w", err)
	}
	if w.Result == nil {
		return nil, fmt.Errorf("core: decoding saturated artifact: missing result")
	}
	return &Saturated{analyzed: a, cfg: w.Config, res: w.Result}, nil
}
