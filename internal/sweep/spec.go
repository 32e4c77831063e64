package sweep

// This file builds job matrices: the cross product of circuits × l_k ×
// beta × seed that reproduces the paper's Tables 10-12. The JSON request
// shape that used to live here (the `-spec` file) moved to
// internal/jobspec, the versioned job model shared by the CLI and the
// serve daemon; jobspec expands its sweep bodies through these helpers.

import (
	"fmt"

	"repro/internal/bench89"
)

// Matrix crosses the axes into jobs, circuit-major then l_k, beta, seed:
// the deterministic input order that Report.Jobs preserves.
func Matrix(circuits []string, lks []int, betas []int, seeds []int64) []Job {
	jobs := make([]Job, 0, len(circuits)*len(lks)*len(betas)*len(seeds))
	for _, c := range circuits {
		for _, lk := range lks {
			for _, beta := range betas {
				for _, seed := range seeds {
					jobs = append(jobs, Job{Circuit: c, LK: lk, Beta: beta, Seed: seed})
				}
			}
		}
	}
	return jobs
}

// ExpandCircuits resolves the "all" and "small" aliases against the
// built-in benchmark set, passing every other name through untouched.
func ExpandCircuits(names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		switch n {
		case "":
			return nil, fmt.Errorf("sweep: empty circuit name")
		case "all":
			out = append(out, "s27")
			for _, sp := range bench89.Specs {
				out = append(out, sp.Name)
			}
		case "small":
			out = append(out, "s27")
			for _, sp := range bench89.SmallSpecs(1300) {
				out = append(out, sp.Name)
			}
		default:
			out = append(out, n)
		}
	}
	return out, nil
}
