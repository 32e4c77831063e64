package main

// The compiler's phases are named once, in core.PhaseNames. This test pins
// that every timing surface uses that one list: the timed sweep JSON's
// phases_ms and latency.phase.* histograms, and the trace's "stage" spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestPhaseVocabularyEndToEnd(t *testing.T) {
	want := append([]string(nil), core.PhaseNames[:]...)
	sort.Strings(want)
	sorted := func(keys []string) []string {
		sort.Strings(keys)
		return keys
	}

	// A cold, timed sweep computes every phase at least once, so both the
	// phase totals and the histograms carry exactly the listed phases.
	var out, errBuf bytes.Buffer
	cfg := sweepRun{circuits: "s27,s510", lks: "16,24", betas: "50", seeds: "1", workers: 2, format: "json", metrics: true}
	if code := runSweep(context.Background(), cfg, &out, &errBuf); code != 0 {
		t.Fatalf("runSweep exit %d: %s", code, errBuf.String())
	}
	var doc struct {
		Stats struct {
			PhasesMS map[string]float64 `json:"phases_ms"`
		} `json:"stats"`
		Latency map[string]json.RawMessage `json:"latency"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc.Stats.PhasesMS {
		keys = append(keys, k)
	}
	if got := sorted(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("stats.phases_ms keys = %v, want %v", got, want)
	}
	keys = nil
	for k := range doc.Latency {
		if name, ok := strings.CutPrefix(k, "latency.phase."); ok {
			keys = append(keys, name)
		}
	}
	if got := sorted(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("latency.phase.* histograms = %v, want %v", got, want)
	}

	// A traced compilation opens one "stage" span per phase, named
	// "<phase> <circuit>".
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := core.Compile(obs.With(context.Background(), rec, 0), c, core.DefaultOptions(3, 1)); err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := rec.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
	}
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	keys = nil
	for _, e := range events {
		if e.Cat == "stage" {
			phase, circuit, _ := strings.Cut(e.Name, " ")
			if circuit != c.Name {
				t.Errorf("stage span %q does not name circuit %q", e.Name, c.Name)
			}
			keys = append(keys, phase)
		}
	}
	if got := sorted(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("stage spans = %v, want one per phase %v", got, want)
	}
}
