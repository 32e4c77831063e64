package main

// The `merced benchgen` subcommand: write the synthetic ISCAS89-statistics
// benchmark suite (paper Table 9) as .bench files.
//
//	merced benchgen -out ./benchmarks            # all 17 circuits plus s27
//	merced benchgen -out . -circuits s641,s713

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench89"
)

// runBenchgen writes one .bench file per circuit into -out and prints a
// statistics line per file. Exit codes: 0 on success, 1 on a generation
// or write error, 2 on a usage error.
func runBenchgen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merced benchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "benchmarks", "output directory")
	circuits := fs.String("circuits", "", "comma-separated subset (default: s27 + all of Table 9)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "merced benchgen: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced benchgen:", err)
		return 1
	}

	var names []string
	if *circuits == "" {
		names = append(names, "s27")
		for _, s := range bench89.Specs {
			names = append(names, s.Name)
		}
	} else {
		for _, n := range strings.Split(*circuits, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	for _, name := range names {
		c, err := bench89.Load(name)
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(*out, strings.ReplaceAll(name, ".", "_")+".bench")
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		if err := c.WriteBench(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		st := c.Stats()
		fmt.Fprintf(stdout, "%-24s %4d PI %5d DFF %6d gates %6d INV  area %8.0f\n",
			path, st.PIs, st.DFFs, st.Gates, st.Inverters, st.Area)
	}
	return 0
}
