// Command bench is the repository's benchmark. Each run sets one fixed
// workload up, runs its ops back to back through the public entry points of
// netlist, core and fault for a fixed time, checks every output, and prints
// every metric by name with its unit. Run it from the repository
// root:
//
//	bash bench/run.sh --workload compile --seed 1 --seconds 55 --trace 0
//	bash bench/run.sh --workload compile --trace 1 --trace-dir out/
//	bash bench/run.sh compare A.jsonl... -- B.jsonl...
//
// A run prints two JSON lines: the run line (machine fingerprint, commit,
// seed, setup and op samples, failures) and, last, the result
// {"correct", "attempted", "failed", "metrics"}. An untraced run reports
// the end-to-end metrics; a traced run (--trace 1) reports the per-layer
// metrics. The exit status is 1 when any op failed, after printing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var code int
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		code = compareMain(os.Args[2:], os.Stdout, os.Stderr)
	} else {
		code = runMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	}
	stop()
	os.Exit(code)
}

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "run seed N: the run's k inputs use flow or campaign seeds k·(N−1)+1 .. k·N")
	seconds := fs.Float64("seconds", 55, "how long the op loop runs")
	trace := fs.Int("trace", 0, "1 records spans around every layer call and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with --trace 1: write spans.json and layers.json to this directory")
	quick := fs.Bool("quick", false, "run the workload's code path on small circuits (smoke-test scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1\n")
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "bench: --seconds must be positive\n")
		return 2
	}

	runtime.GOMAXPROCS(1) // see workers
	d, res, tr, err := run(ctx, runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, quick: *quick})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if tr != nil && *traceDir != "" {
		if err := tr.write(*traceDir); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	for _, v := range []any{d, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d ops failed: %s\n", res.Failed, res.Attempted, strings.Join(d.Errors, "; "))
		return 1
	}
	return 0
}
