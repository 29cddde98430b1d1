package scenario

import (
	"fmt"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/swapmem"
)

// The extended families' fragments and hooks (their rows are in the table):
// transient-window shapes the flat TriggerType enum could not express. Each
// composes proven trigger mechanics with a new window or encode structure,
// so they trigger as reliably as their canonical cousins while reaching
// state the canonical eight never touch.

// nested-fault-in-branch: a faulting access *inside* a mispredicted branch
// window (SpecFuzz-style nesting). The branch at the trigger PC squashes
// before the transient fault can ever be raised, so the fault is purely
// speculative — LSU/TLB fault paths are exercised under a control-flow
// squash instead of an exception squash, a combination no flat trigger
// reaches.
var (
	nestedGuard = item(fmt.Sprintf("li t6, %#x", uint64(swapmem.GuardAccBase+0x80)))
	nestedLoad  = item("ld t5, 0(t6)")
	nestedStore = item("sd t5, 0(t6)")
)

// nestedSetup is the branch-condition setup plus the guard address for the
// nested fault (architecturally dead: the window never commits).
func nestedSetup(dst []isa.Item, _ Params, _ uint64) []isa.Item {
	dst = append(dst, slowDiv...)
	return append(dst, nestedGuard)
}

func nestedWindow(dst []isa.Item, p Params, body []isa.Item) ([]isa.Item, int, int) {
	fault := nestedLoad
	if p.StoreFlavor {
		fault = nestedStore
	}
	dst = append(dst,
		branchTrigger,
		ecall,
		winLabel,
		fault, // nested: faults only transiently
	)
	dst = append(dst, body...)
	return append(dst, ecall), 2, len(body) + 2
}

// stl-forward-chain: a store-to-load-forwarding chain appended to the
// memory-disambiguation window. The stale pointer obtained through the
// mis-disambiguated load is laundered through an in-window store/load
// forwarding pair before the secret dereference, so the leak flows through
// the store queue's forwarding path — a channel the plain mem-disambig
// family never exercises.
var (
	stlSlot    = item(fmt.Sprintf("li a5, %#x", uint64(swapmem.DataBase+0x500)))
	stlLaunder = frag(
		"sd t1, 0(a5)", // spill the stale pointer...
		"ld t2, 0(a5)", // ...and forward it straight back
		"ld s0, 0(t2)", // dereference the forwarded copy
	)
)

// stlSetup is the disambiguation setup plus the forwarding slot the window
// bounces the stale pointer through.
func stlSetup(dst []isa.Item, _ Params, _ uint64) []isa.Item {
	dst = append(dst, disambigSetup...)
	return append(dst, stlSlot)
}

func stlAccess(dst []isa.Item, _ Params) []isa.Item {
	return append(dst, stlLaunder...)
}

// cache-occupancy: a page-fault window whose encoder is a Shesha-style
// multi-gadget cache-occupancy pattern (see occupancyGadgets).

// occupancyGadgets holds the cache-occupancy encode blocks, one per
// gadget slot (EncodeOps selects how many stack). Each gadget owns a 1KB
// slice of the data region; the secret's slot-th bit pair (bits 2i..2i+1)
// selects which 256B quarter fills, so the signal is the *set* of resident
// lines rather than one secret-indexed line, and each stacked gadget
// encodes two fresh secret bits. Every address is a layout constant.
var occupancyGadgets = func() [4][]isa.Item {
	var out [4][]isa.Item
	for i := range out {
		base := uint64(swapmem.DataBase + 0x3000 + 0x400*i)
		out[i] = frag(
			fmt.Sprintf("srli s1, s0, %d", 2*i),
			"andi s1, s1, 0x3",
			"slli s1, s1, 8",
			fmt.Sprintf("li t1, %#x", base),
			"add t1, t1, s1",
			"ld t2, 0(t1)",
			"ld t3, 64(t1)",
			"ld t4, 128(t1)",
			"ld t5, 192(t1)",
		)
	}
	return out
}()

// occupancyEncode stacks the first EncodeOps occupancy gadgets.
func occupancyEncode(dst []isa.Item, p Params) []isa.Item {
	for i := 0; i < p.EncodeOps && i < len(occupancyGadgets); i++ {
		dst = append(dst, occupancyGadgets[i]...)
	}
	return dst
}
