package main

// The `merced simulate` subcommand: drive a gate-level netlist with
// random, LFSR or all-zero stimulus and report output activity; with -vcd
// it writes a waveform dump any VCD viewer opens.
//
//	merced simulate -circuit s27 -cycles 50
//	merced simulate -file design.bench -cycles 200 -stimulus lfsr -vcd waves.vcd

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/cbit"
	"repro/internal/sim"
)

// runSimulate simulates the whole circuit on its compiled segment's scalar
// machine. Exit codes: 0 on success, 1 on a load, compile or write error,
// 2 on a usage error (a bad flag, an unknown -stimulus, a stray argument).
func runSimulate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merced simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "path to a .bench netlist")
	circuit := fs.String("circuit", "", "built-in benchmark name")
	cycles := fs.Int("cycles", 64, "cycles to simulate")
	stimulus := fs.String("stimulus", "random", "input stimulus: random | lfsr | zero")
	seed := fs.Int64("seed", 1, "stimulus seed")
	vcdPath := fs.String("vcd", "", "write a VCD waveform dump to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "merced simulate: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *stimulus {
	case "random", "lfsr", "zero":
	default:
		fmt.Fprintf(stderr, "merced simulate: unknown -stimulus %q (want random, lfsr or zero)\n", *stimulus)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "merced simulate:", err)
		return 1
	}

	c, err := loadCircuit(*file, *circuit)
	if err != nil {
		return fail(err)
	}
	sg, err := sim.Compile(c)
	if err != nil {
		return fail(err)
	}
	drive, err := makeStimulus(*stimulus, len(c.Inputs), *seed)
	if err != nil {
		return fail(err)
	}
	var vcd *sim.VCDWriter
	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if vcd, err = sim.NewVCDWriter(f, sg, nil, 0); err != nil {
			return fail(err)
		}
	}

	st := sg.NewState()
	toggles := make([]int, len(c.Outputs))
	prev := make([]uint64, len(c.Outputs))
	for cycle := 0; cycle < *cycles; cycle++ {
		for i, w := range drive() {
			sg.SetInput(st, i, w)
		}
		sg.EvalComb(st)
		if vcd != nil {
			vcd.Sample(st)
		}
		for i := range c.Outputs {
			w := sg.Output(st, i) & 1
			if cycle > 0 && w != prev[i] {
				toggles[i]++
			}
			prev[i] = w
		}
		sg.ClockDFFs(st)
	}
	if vcd != nil {
		if err := vcd.Close(); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "%s: simulated %d cycles (%s stimulus)\n", c.Name, *cycles, *stimulus)
	shown := min(len(c.Outputs), 16)
	for i := 0; i < shown; i++ {
		fmt.Fprintf(stdout, "  %-12s final=%d toggles=%d\n", c.Outputs[i], prev[i], toggles[i])
	}
	if shown < len(c.Outputs) {
		fmt.Fprintf(stdout, "  ... %d more outputs\n", len(c.Outputs)-shown)
	}
	if *vcdPath != "" {
		fmt.Fprintf(stdout, "waveforms: %s (%d signals)\n", *vcdPath, len(sg.Signals()))
	}
	return 0
}

// makeStimulus returns a per-cycle input generator for a validated
// stimulus kind: one word per primary input, bit 0 carrying the stimulus
// (the lfsr and zero kinds mirror it into every lane).
func makeStimulus(kind string, inputs int, seed int64) (func() []uint64, error) {
	words := make([]uint64, inputs)
	switch kind {
	case "zero":
		return func() []uint64 { return words }, nil
	case "lfsr":
		width := min(max(inputs, cbit.MinWidth), cbit.MaxWidth)
		tpg, err := cbit.New(width)
		if err != nil {
			return nil, err
		}
		s := uint64(seed)
		if s == 0 {
			s = 1
		}
		_ = tpg.SetState(s & (1<<uint(width) - 1))
		return func() []uint64 {
			pat := tpg.StepTPG()
			for i := range words {
				words[i] = 0
				if pat&(1<<uint(i%width)) != 0 {
					words[i] = ^uint64(0)
				}
			}
			return words
		}, nil
	default: // random
		rng := rand.New(rand.NewSource(seed))
		return func() []uint64 {
			for i := range words {
				words[i] = rng.Uint64()
			}
			return words
		}, nil
	}
}
