package main

// Golden equivalence test for the staged pipeline refactor. The files
// under results/golden/ were first rendered by the pre-refactor engine
// (every job running the monolithic core.Compile) over the matrix
//
//	-circuits small,s1423 -lks 16,24 -betas 25,50,100 -seeds 1,2
//
// with -no-timing, so the sweep output is byte-reproducible. They were
// re-rendered once since, when nodes without out-nets left the Saturate
// heap and every compile's decisions moved. The staged shared-prefix
// pipeline must reproduce both renderings bit for bit.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestSweepMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is a few seconds of compute")
	}
	for _, tc := range []struct {
		format string
		golden string
	}{
		{"csv", "sweep_prefix_matrix.csv"},
		{"json", "sweep_prefix_matrix.json"},
	} {
		t.Run(tc.format, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out, errBuf bytes.Buffer
			code := runSweep(context.Background(), sweepRun{
				circuits: "small,s1423",
				lks:      "16,24",
				betas:    "25,50,100",
				seeds:    "1,2",
				format:   tc.format,
				noTiming: true,
			}, &out, &errBuf)
			if code != 0 {
				t.Fatalf("runSweep exit %d: %s", code, errBuf.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("staged %s output diverged from the pre-refactor golden %s\n(run `merced -sweep -circuits small,s1423 -lks 16,24 -betas 25,50,100 -seeds 1,2 -no-timing -format %s` and diff by hand)",
					tc.format, tc.golden, tc.format)
			}
		})
	}
}
