package fault

import "repro/internal/obs"

// AddMetrics folds the campaign's counters into m under the campaign.*
// prefix. Every value is a pure function of the report, which is itself
// deterministic for fixed options, so the resulting table is identical for
// any Workers value. The batch counters do depend on the packing width
// (wider batches → fewer of them), and so does campaign.unexcited
// (pruning gives up when it could not lower the packing); the
// fault/detection counters do not.
func (r *CampaignReport) AddMetrics(m *obs.Metrics) {
	m.Add("campaign.segments", int64(len(r.Segments)))
	m.Add("campaign.faults", int64(r.Total))
	m.Add("campaign.detected", int64(r.Detected))
	m.Add("campaign.simulated", int64(r.Simulated))
	m.Add("campaign.batches", int64(r.Batches))
	m.Add("campaign.triage_batches", int64(r.TriageBatches))
	m.Add("campaign.escalation_batches", int64(r.Batches-r.TriageBatches))
	m.Add("campaign.triage_detected", int64(r.TriageDetected))
	m.Add("campaign.survivors", int64(r.Survivors))
	m.Add("campaign.unexcited", int64(r.Unexcited))
}

// Metrics returns a fresh registry holding only this campaign's counters.
func (r *CampaignReport) Metrics() *obs.Metrics {
	m := obs.NewMetrics()
	r.AddMetrics(m)
	return m
}
