// Package ppetretime reproduces "Area Efficient Pipelined Pseudo-Exhaustive
// Testing with Retiming" (Liou, Lin, Cheng — DAC 1996): the Merced BIST
// compiler that partitions a sequential circuit into pseudo-exhaustively
// testable segments via probabilistic multicommodity-flow clustering and
// repositions functional flip-flops onto the cut nets by legal retiming,
// cutting CBIT test-hardware area by ~20% on ISCAS89-class benchmarks.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); the runnable entry points are:
//
//   - cmd/merced    — the BIST compiler (paper Table 2); -cover runs the
//     stuck-at fault-coverage campaign, `merced simulate` drives a netlist
//     (with a VCD dump), `merced benchgen` writes the synthetic
//     ISCAS89-statistics suite and `merced tables` regenerates every table
//     and figure of the evaluation
//   - examples/     — quickstart, s27 walkthrough, area sweep, fault coverage
//
// bench_test.go in this directory holds one benchmark per paper table and
// figure.
package ppetretime
