package fault

// Campaign report writers: JSON for machines, CSV for spreadsheets,
// aligned text for terminals. With Timing off, all three forms are
// byte-for-byte deterministic for fixed CampaignOptions — independent of
// worker count and scheduling — which the determinism tests pin down by
// diffing reports rendered at different -workers values.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// RenderOptions selects what the campaign writers emit.
type RenderOptions struct {
	// Timing includes wall-clock and throughput-shape fields: campaign
	// elapsed, worker count, and batch counts (batch counts are
	// deterministic but depend on the packing width, so they stay out of
	// the reproducible report body). Leave Timing false when the output
	// must be byte-identical across worker counts.
	Timing bool
	// Undetected lists each cluster's surviving faults in the text form
	// (they are always present in JSON).
	Undetected bool
	// Metrics appends the campaign.* counter table (deterministic for any
	// worker count) to the text form and a "metrics" object to the JSON
	// form. The CSV form never carries metrics. Latency histograms are
	// fills of wall-clock data, so they render only when Metrics AND
	// Timing are both set — -no-timing output stays byte-identical whether
	// or not histograms were collected.
	Metrics bool
}

type segmentJSON struct {
	Cluster    int      `json:"cluster"`
	Cells      int      `json:"cells"`
	Inputs     int      `json:"inputs"`
	Outputs    int      `json:"outputs"`
	DFFs       int      `json:"dffs"`
	Faults     int      `json:"faults"`
	Simulated  int      `json:"simulated"`
	Detected   int      `json:"detected"`
	Coverage   float64  `json:"coverage"`
	Patterns   uint64   `json:"patterns"`
	Undetected []string `json:"undetected,omitempty"`
}

type campaignJSON struct {
	Segments      []segmentJSON                   `json:"segments"`
	Faults        int                             `json:"faults"`
	Simulated     int                             `json:"simulated"`
	Detected      int                             `json:"detected"`
	Coverage      float64                         `json:"coverage"`
	Batches       int                             `json:"batches,omitempty"`
	TriageBatches int                             `json:"triage_batches,omitempty"`
	Workers       int                             `json:"workers,omitempty"`
	ElapsedMS     float64                         `json:"elapsed_ms,omitempty"`
	Metrics       *obs.Metrics                    `json:"metrics,omitempty"`
	Latency       map[string]obs.HistogramSummary `json:"latency,omitempty"`
}

// WriteJSON renders the report as indented JSON: a "segments" array in
// partition order plus aggregate counters. Timing fields appear only under
// opts.Timing.
func (r *CampaignReport) WriteJSON(w io.Writer, opts RenderOptions) error {
	out := campaignJSON{
		Segments:  make([]segmentJSON, 0, len(r.Segments)),
		Faults:    r.Total,
		Simulated: r.Simulated,
		Detected:  r.Detected,
		Coverage:  r.Ratio(),
	}
	for i := range r.Segments {
		sc := &r.Segments[i]
		sj := segmentJSON{
			Cluster: sc.Cluster, Cells: sc.Cells,
			Inputs: sc.Inputs, Outputs: sc.Outputs, DFFs: sc.DFFs,
			Faults: sc.Total, Simulated: sc.Simulated, Detected: sc.Detected,
			Coverage: sc.Ratio(), Patterns: sc.Patterns,
		}
		for _, f := range sc.Undetected {
			sj.Undetected = append(sj.Undetected, f.String())
		}
		out.Segments = append(out.Segments, sj)
	}
	if opts.Timing {
		out.Batches = r.Batches
		out.TriageBatches = r.TriageBatches
		out.Workers = r.Workers
		out.ElapsedMS = float64(r.Elapsed) / float64(time.Millisecond)
	}
	if opts.Metrics {
		out.Metrics = r.Metrics()
		if opts.Timing {
			out.Latency = r.Latency.Summaries()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// table builds the shared per-cluster table for the CSV and text writers.
func (r *CampaignReport) table(title string) *report.Table {
	t := report.NewTable(title, "cluster", "cells", "inputs", "outputs", "dffs",
		"faults", "simulated", "detected", "coverage", "patterns")
	for i := range r.Segments {
		sc := &r.Segments[i]
		t.AddRowf(sc.Cluster, sc.Cells, sc.Inputs, sc.Outputs, sc.DFFs,
			sc.Total, sc.Simulated, sc.Detected,
			fmt.Sprintf("%.4f", sc.Ratio()), sc.Patterns)
	}
	return t
}

// WriteCSV renders one row per cluster in partition order.
func (r *CampaignReport) WriteCSV(w io.Writer, opts RenderOptions) error {
	return r.table("").WriteCSV(w)
}

// WriteText renders the aligned per-cluster table followed by the
// aggregate line (worker/batches/elapsed trailer only under
// opts.Timing).
func (r *CampaignReport) WriteText(w io.Writer, opts RenderOptions) error {
	if err := r.table("Fault coverage").Write(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\ntotal: %d/%d faults detected (%.4f coverage), %d simulated after collapse\n",
		r.Detected, r.Total, r.Ratio(), r.Simulated); err != nil {
		return err
	}
	if opts.Undetected {
		for i := range r.Segments {
			sc := &r.Segments[i]
			for _, f := range sc.Undetected {
				if _, err := fmt.Fprintf(w, "undetected: cluster %d %s\n", sc.Cluster, f); err != nil {
					return err
				}
			}
		}
	}
	if opts.Metrics {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := r.Metrics().WriteTable(w); err != nil {
			return err
		}
		if opts.Timing && r.Latency.Len() > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := r.Latency.WriteTable(w); err != nil {
				return err
			}
		}
	}
	if !opts.Timing {
		return nil
	}
	_, err := fmt.Fprintf(w, "workers %d, %d batches (%d triage): %v\n",
		r.Workers, r.Batches, r.TriageBatches, r.Elapsed.Round(time.Millisecond))
	return err
}
