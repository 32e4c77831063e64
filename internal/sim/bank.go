package sim

import "slices"

// machine is one physical lane vector of an engine: the value, force and
// latch planes of every signal at one width, and the clock kernels that
// run on them. Its bits are laid out by shape: in the fault-parallel
// layout bit L of the vector is lane L and bit 0 of word 0 the fault-free
// reference; in the session layout the vector is split into session
// groups of group bits, and slot i of every group is bit s*group+i, with
// slot 0 the session's reference.
type machine interface {
	// shape sets the layout: fault-parallel (fp, group 64) or session
	// groups of group bits.
	shape(fp bool, group uint)
	// zero resets the state: every value plane to 0.
	zero()
	// clearForces removes every force bit.
	clearForces()
	// refill makes every slot of every group a copy of its reference.
	refill()
	// force sets (on) or clears the stuck-at force bit of slot at sig, in
	// every group (fault-parallel: lane slot of the vector).
	force(sig int, stuck1 bool, slot int, on bool)
	// pin sets sig's value in slot of every group to the stuck value.
	pin(sig int, stuck1 bool, slot int)
	// copySlot copies slot from into slot to in every group: at every
	// signal when all is set, else at the flip-flop outputs only.
	copySlot(from, to int, all bool)
	// settle drives the inputs, session s (word s in the fault-parallel
	// layout) from pat[s], and settles the program.
	settle(pat *[MaxLaneWords]uint64)
	// excited reports whether some pending site reads its awaited value
	// on a reference bit; due reports it for one site.
	excited(sites []pendSite) bool
	due(p pendSite) bool
	// sample writes bit bit of every boundary output into out.
	sample(out []uint64, bit int)
	// latch folds the boundary outputs' divergence from their group's
	// reference into the detection accumulator, masked by the armed bits,
	// when detect is set, and then clocks the flip-flops.
	latch(detect bool)
	// masks returns the detection accumulator and the armed bits, and
	// setMasks sets them.
	masks() (det, want [MaxLaneWords]uint64)
	setMasks(det, want [MaxLaneWords]uint64)
	// regroupTo moves every signal's value and force bits, and the forced
	// ops, onto dst, whose groups (set by its shape) differ in width:
	// each group is truncated, or widened with new value slots copying
	// the reference and new force bits clear.
	regroupTo(dst machine, sessions int)
}

// bank is the machine at width W. forced lists, ascending, the program
// ops whose output carries a force bit; the settle folds force masks
// there only. next is the latch scratch, one D value per flip-flop. pat
// holds the clock's per-session patterns. low has the reference bit of
// every group of a word set and fill the low group bits, so (x&low)*fill
// spreads each group's reference over its group; fp marks the
// fault-parallel layout, whose one reference is bit 0 of word 0.
type bank[W lanevec] struct {
	sgmt           *Segment
	force0, force1 []W
	forced         []int32
	v              []W
	next           []W
	det, want      W
	pat            [MaxLaneWords]uint64
	fp             bool
	group          uint
	low, fill      uint64
}

func newBank[W lanevec](sg *Segment) *bank[W] {
	n := len(sg.names)
	return &bank[W]{
		sgmt:   sg,
		force0: make([]W, n),
		force1: make([]W, n),
		v:      make([]W, n),
		next:   make([]W, len(sg.dffs)),
	}
}

func (b *bank[W]) shape(fp bool, group uint) {
	b.fp, b.group, b.fill, b.low = fp, group, groupMask(group), 0
	for off := uint(0); off < 64; off += group {
		b.low |= 1 << off
	}
}

func (b *bank[W]) zero() {
	var z W
	for i := range b.v {
		b.v[i] = z
	}
}

func (b *bank[W]) clearForces() {
	var z W
	for i := range b.force0 {
		b.force0[i] = z
		b.force1[i] = z
	}
	b.forced = b.forced[:0]
}

func (b *bank[W]) refill() {
	for i := range b.v {
		x := &b.v[i]
		for j := range len(*x) {
			(*x)[j] = ((*x)[j] & b.low) * b.fill
		}
	}
}

// slots calls fn with the word and bit of slot in every group.
func (b *bank[W]) slots(slot int, fn func(j int, bit uint)) {
	if b.fp {
		fn(slot>>6, uint(slot&63))
		return
	}
	var w W
	for off := 0; off < 64*len(w); off += int(b.group) {
		fn((off+slot)>>6, uint((off+slot)&63))
	}
}

func (b *bank[W]) force(sig int, stuck1 bool, slot int, on bool) {
	f := b.force0
	if stuck1 {
		f = b.force1
	}
	x := &f[sig]
	b.slots(slot, func(j int, bit uint) {
		(*x)[j] &^= 1 << bit
		if on {
			(*x)[j] |= 1 << bit
		}
	})
	op := b.sgmt.opOf[sig]
	if op < 0 {
		return
	}
	k, found := slices.BinarySearch(b.forced, op)
	var z W
	switch {
	case on && !found:
		b.forced = slices.Insert(b.forced, k, op)
	case !on && found && b.force0[sig] == z && b.force1[sig] == z:
		b.forced = slices.Delete(b.forced, k, k+1)
	}
}

func (b *bank[W]) pin(sig int, stuck1 bool, slot int) {
	x := &b.v[sig]
	b.slots(slot, func(j int, bit uint) {
		(*x)[j] &^= 1 << bit
		if stuck1 {
			(*x)[j] |= 1 << bit
		}
	})
}

func (b *bank[W]) copySlot(from, to int, all bool) {
	move := func(x *W) {
		b.slots(0, func(j int, bit uint) {
			src, dst := bit+uint(from), bit+uint(to)
			(*x)[j] = (*x)[j]&^(1<<dst) | ((*x)[j]>>src&1)<<dst
		})
	}
	if all {
		for i := range b.v {
			move(&b.v[i])
		}
		return
	}
	for _, d := range b.sgmt.dffs {
		move(&b.v[d.out])
	}
}

func (b *bank[W]) due(p pendSite) bool {
	x := b.v[p.sig]
	var hit uint64
	for j := range len(x) {
		hit |= x[j] ^ p.inv
	}
	return hit&b.low != 0
}

func (b *bank[W]) sample(out []uint64, bit int) {
	for i, sig := range b.sgmt.outputs {
		out[i] = b.v[sig][bit>>6] >> uint(bit&63) & 1
	}
}

func (b *bank[W]) masks() (det, want [MaxLaneWords]uint64) {
	for j := range len(b.det) {
		det[j], want[j] = b.det[j], b.want[j]
	}
	return det, want
}

func (b *bank[W]) setMasks(det, want [MaxLaneWords]uint64) {
	for j := range len(b.det) {
		b.det[j], b.want[j] = det[j], want[j]
	}
}

func (b *bank[W]) regroupTo(dst machine, sessions int) {
	switch d := dst.(type) {
	case *bank[[1]uint64]:
		regroup(d, b, sessions)
	case *bank[[2]uint64]:
		regroup(d, b, sessions)
	case *bank[[4]uint64]:
		regroup(d, b, sessions)
	}
}

// regroup moves src's planes onto dst group by group: group s of a plane
// is bits s*g .. s*g+g-1 of the vector, g each bank's group width.
func regroup[D, S lanevec](dst *bank[D], src *bank[S], sessions int) {
	from, to := src.group, dst.group
	for p, pl := range [3]struct {
		d []D
		s []S
	}{{dst.v, src.v}, {dst.force0, src.force0}, {dst.force1, src.force1}} {
		for i := range pl.s {
			var w D
			for s := range sessions {
				off := s * int(from)
				x := pl.s[i][off>>6] >> uint(off&63) & groupMask(from)
				if p == 0 && to > from {
					x |= -(x & 1) << from
				}
				off = s * int(to)
				w[off>>6] |= x & groupMask(to) << uint(off&63)
			}
			pl.d[i] = w
		}
	}
	dst.forced = append(dst.forced[:0], src.forced...)
}

// The per-clock methods dispatch to the hand-unrolled width
// specializations in wide_unroll.go; the pointer receiver makes the any()
// conversion allocation-free.

func (b *bank[W]) settle(pat *[MaxLaneWords]uint64) {
	b.pat = *pat
	switch bb := any(b).(type) {
	case *bank[[1]uint64]:
		settleClock1(bb)
	case *bank[[2]uint64]:
		settleClock2(bb)
	case *bank[[4]uint64]:
		settleClock4(bb)
	}
}

func (b *bank[W]) excited(sites []pendSite) bool {
	switch bb := any(b).(type) {
	case *bank[[1]uint64]:
		return excited1(bb.v, sites, b.low)
	case *bank[[2]uint64]:
		return excited2(bb.v, sites, b.low)
	case *bank[[4]uint64]:
		return excited4(bb.v, sites)
	}
	return false
}

func (b *bank[W]) latch(detect bool) {
	switch bb := any(b).(type) {
	case *bank[[1]uint64]:
		latchClock1(bb, detect)
	case *bank[[2]uint64]:
		latchClock2(bb, detect)
	case *bank[[4]uint64]:
		latchClock4(bb, detect)
	}
}
