package uarch

import "math/bits"

// The taint census is kept at the write sites. Every taint shadow belongs to
// one census module, and every write to a shadow reports the written
// element's tainted-bit count before and after to that module's taintCount.
// Reading a census is then O(modules) instead of a rescan of every shadow
// each cycle. The rule for new state: a new taint shadow must update its
// module's counter wherever it is written, and the full-scan oracle in the
// package tests must learn to scan it. Three small parts are read directly
// instead: the frontend pc shadow, the FPU latch and the line-fill buffer
// (whose census depends on the cycle through MSHR liveness).

// taintCount is one module's census: the number of state elements holding
// any tainted bit and the total of their tainted bits.
type taintCount struct {
	elems, bits int
}

// move accounts for one element whose tainted-bit count went from before to
// after.
func (tc *taintCount) move(before, after int) {
	tc.bits += after - before
	switch {
	case before == 0 && after != 0:
		tc.elems++
	case before != 0 && after == 0:
		tc.elems--
	}
}

// set accounts for a one-word element whose shadow goes from old to new.
func (tc *taintCount) set(old, new uint64) {
	if old != new {
		tc.move(bits.OnesCount64(old), bits.OnesCount64(new))
	}
}

func (tc taintCount) module(name string) ModuleTaint {
	return ModuleTaint{Module: name, Tainted: tc.elems, Bits: tc.bits}
}

// wordModule is the census of a module made of one shadow word.
func wordModule(name string, t uint64) ModuleTaint {
	m := ModuleTaint{Module: name, Bits: bits.OnesCount64(t)}
	if t != 0 {
		m.Tainted = 1
	}
	return m
}

// ModuleTaint is one module's taint census entry.
type ModuleTaint struct {
	Module  string
	Tainted int
	Bits    int
}

// NumCensusModules is the length of every census CensusInto produces.
const NumCensusModules = 17

// censusModules names the modules of every census, in CensusInto's order.
var censusModules = [NumCensusModules]string{
	"frontend", "rob", "regfile", "lsu", "dcache", "icache", "lfb", "dtlb", "itlb",
	"l2tlb", "bht", "btb", "faubtb", "indbtb", "ras", "loop", "fpu",
}

// CensusModule names the census module at position row of every census.
func CensusModule(row int) string { return censusModules[row] }

// CensusRow returns a module's position in every census, or -1 for a
// module outside the census. Comparing against constants costs a length
// check and a word compare or two, far less than hashing the name.
func CensusRow(module string) int {
	switch module {
	case "frontend":
		return 0
	case "rob":
		return 1
	case "regfile":
		return 2
	case "lsu":
		return 3
	case "dcache":
		return 4
	case "icache":
		return 5
	case "lfb":
		return 6
	case "dtlb":
		return 7
	case "itlb":
		return 8
	case "l2tlb":
		return 9
	case "bht":
		return 10
	case "btb":
		return 11
	case "faubtb":
		return 12
	case "indbtb":
		return 13
	case "ras":
		return 14
	case "loop":
		return 15
	case "fpu":
		return 16
	}
	return -1
}

// Census reports per-module tainted element and bit counts across the whole
// microarchitecture (the coverage substrate and the Figure 6 series). The
// modules always come in the same order: frontend, rob, regfile, lsu,
// dcache, icache, lfb, dtlb, itlb, l2tlb, bht, btb, faubtb, indbtb, ras,
// loop, fpu.
func (c *Core) Census() []ModuleTaint { return c.CensusInto(nil) }

// CensusInto is Census appending into a caller-provided buffer — the
// per-cycle taint-tracing path reuses one scratch slice instead of
// allocating a census every cycle.
func (c *Core) CensusInto(out []ModuleTaint) []ModuleTaint {
	lfb, _ := c.DCache.LFBCensus(c.Cycle)
	return append(out,
		wordModule("frontend", c.pcTaint),
		// The RoB counts the raw shadow state: squashed entries retain their
		// taint registers exactly as a shadow circuit would.
		c.robCensus.module("rob"),
		c.regCensus.module("regfile"),
		c.lsuCensus.module("lsu"),
		c.DCache.census.module("dcache"),
		c.ICache.census.module("icache"),
		ModuleTaint{Module: "lfb", Tainted: lfb, Bits: lfb * 64},
		c.DTLB.census.module("dtlb"),
		c.ITLB.census.module("itlb"),
		c.L2TLB.census.module("l2tlb"),
		c.bht.census.module("bht"),
		c.btb.census.module("btb"),
		c.faubtb.census.module("faubtb"),
		c.ind.census.module("indbtb"),
		c.ras.census.module("ras"),
		c.loop.census.module("loop"),
		wordModule("fpu", c.fpuLatchTaint),
	)
}

// TaintSum totals tainted bits across all modules.
func (c *Core) TaintSum() int {
	var buf [NumCensusModules]ModuleTaint
	sum := 0
	for _, m := range c.CensusInto(buf[:0]) {
		sum += m.Bits
	}
	return sum
}
