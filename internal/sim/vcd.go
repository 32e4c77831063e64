package sim

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// VCDWriter streams a Value Change Dump (IEEE 1364) of selected signals
// during simulation, one lane of a segment's 64-wide scalar state. Viewers
// like GTKWave open the output directly.
type VCDWriter struct {
	w       *bufio.Writer
	lane    uint
	signals []int    // dense signal indices, sorted by name
	codes   []string // VCD identifier codes, aligned with signals
	last    []uint8  // previous bit per signal (0xFF: not yet emitted)
	time    int
	closed  bool
}

// NewVCDWriter prepares a dump of the named signals (nil: every signal) on
// the given lane (0..LanesPerWord). The header is written immediately.
func NewVCDWriter(w io.Writer, sg *Segment, names []string, lane uint) (*VCDWriter, error) {
	if lane > LanesPerWord {
		return nil, fmt.Errorf("sim: lane %d out of range", lane)
	}
	if names == nil {
		names = append([]string(nil), sg.names...)
	}
	sort.Strings(names)
	v := &VCDWriter{w: bufio.NewWriter(w), lane: lane}
	for _, name := range names {
		idx, ok := sg.index[name]
		if !ok {
			return nil, fmt.Errorf("sim: unknown signal %q", name)
		}
		v.signals = append(v.signals, idx)
		v.codes = append(v.codes, vcdCode(len(v.codes)))
	}
	v.last = make([]uint8, len(v.signals))
	for i := range v.last {
		v.last[i] = 0xFF
	}

	fmt.Fprintf(v.w, "$version ppet-retime simulator $end\n")
	fmt.Fprintf(v.w, "$timescale 1ns $end\n")
	fmt.Fprintf(v.w, "$scope module %s $end\n", sanitizeVCD(sg.name))
	for i, name := range names {
		fmt.Fprintf(v.w, "$var wire 1 %s %s $end\n", v.codes[i], sanitizeVCD(name))
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
	return v, nil
}

// Sample records the current state as one timestep, emitting only changed
// bits.
func (v *VCDWriter) Sample(s *State) {
	if v.closed {
		return
	}
	headerOut := false
	for i, idx := range v.signals {
		bit := uint8((s.V[idx] >> v.lane) & 1)
		if bit == v.last[i] {
			continue
		}
		if !headerOut {
			fmt.Fprintf(v.w, "#%d\n", v.time)
			headerOut = true
		}
		v.last[i] = bit
		fmt.Fprintf(v.w, "%d%s\n", bit, v.codes[i])
	}
	v.time++
}

// Close flushes the dump. Further samples are ignored.
func (v *VCDWriter) Close() error {
	if v.closed {
		return nil
	}
	v.closed = true
	fmt.Fprintf(v.w, "#%d\n", v.time)
	return v.w.Flush()
}

// vcdCode maps an index to a compact printable identifier (! to ~, then
// two-character codes).
func vcdCode(i int) string {
	const lo, hi = 33, 126
	n := hi - lo + 1
	if i < n {
		return string(rune(lo + i))
	}
	return string(rune(lo+i/n-1)) + string(rune(lo+i%n))
}

func sanitizeVCD(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "sig"
	}
	return string(out)
}
