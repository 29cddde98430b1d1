package uarch

import (
	"math/bits"
	"reflect"
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
)

// scanCensus is the census oracle: it recounts every taint shadow from
// scratch and shares no counting code with the census kept at the write
// sites. CensusInto must equal it after any sequence of writes.
func scanCensus(c *Core) []ModuleTaint {
	var rob, lsu, loop tally
	for i := range c.rob {
		e := &c.rob[i]
		rob.add(bits.OnesCount64(e.taint) + bits.OnesCount64(e.addrTaint) + bits.OnesCount64(e.stDataT))
	}
	for i := range c.ldq {
		lsu.word(c.ldq[i].taint)
	}
	for i := range c.stq {
		lsu.word(c.stq[i].taint)
	}
	for i := range c.loop.entries {
		loop.word(c.loop.entries[i].taint)
	}
	lfb, _ := c.DCache.LFBCensus(c.Cycle)
	return []ModuleTaint{
		scanWords(c.pcTaint).module("frontend"),
		rob.module("rob"),
		scanWords(append(c.archXT[:], c.archFT[:]...)...).module("regfile"),
		lsu.module("lsu"),
		scanCache(c.DCache).module("dcache"),
		scanCache(c.ICache).module("icache"),
		{Module: "lfb", Tainted: lfb, Bits: lfb * 64},
		scanTLB(c.DTLB).module("dtlb"),
		scanTLB(c.ITLB).module("itlb"),
		scanTLB(c.L2TLB).module("l2tlb"),
		scanWords(c.bht.taint...).module("bht"),
		scanBTB(c.btb).module("btb"),
		scanBTB(c.faubtb).module("faubtb"),
		scanBTB(c.ind).module("indbtb"),
		scanWords(c.ras.taint...).module("ras"),
		loop.module("loop"),
		scanWords(c.fpuLatchTaint).module("fpu"),
	}
}

// tally is one scanned module: every element with a nonzero tainted-bit
// count is one tainted element.
type tally struct{ elems, bits int }

func (t *tally) add(n int) {
	if n > 0 {
		t.elems++
		t.bits += n
	}
}

func (t *tally) word(w uint64) { t.add(bits.OnesCount64(w)) }

func (t tally) module(name string) ModuleTaint {
	return ModuleTaint{Module: name, Tainted: t.elems, Bits: t.bits}
}

// scanWords counts shadow words, one element each.
func scanWords(ws ...uint64) tally {
	var t tally
	for _, w := range ws {
		t.word(w)
	}
	return t
}

// scanCache counts lines with tag or data taint, whether valid or not.
func scanCache(c *Cache) tally {
	var t tally
	words := c.cfg.LineBytes / 8
	for i, tag := range c.tagT {
		n := bits.OnesCount64(tag)
		for _, d := range c.dataT[i*words : (i+1)*words] {
			n += bits.OnesCount64(d)
		}
		t.add(n)
	}
	return t
}

func scanTLB(tlb *TLB) tally {
	var t tally
	for i := range tlb.entries {
		t.word(tlb.entries[i].taint)
	}
	return t
}

func scanBTB(b *BTB) tally {
	var t tally
	for i := range b.entries {
		t.word(b.entries[i].taint)
	}
	return t
}

// checkCensus fails the test when the kept census differs from the scan.
func checkCensus(t *testing.T, c *Core, what string) {
	t.Helper()
	if got, want := c.Census(), scanCensus(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: census diverges from scan:\nkept: %v\nscan: %v", what, got, want)
	}
}

// censusCore is a BOOM core that has run the reset probe program, so the
// write-site cases start from shadows that already hold taint.
func censusCore(t *testing.T, mode IFTMode) *Core {
	t.Helper()
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	sp.SetTaint(0x2000, 8, true)
	p := resetProbeProgram(t)
	loadProgram(sp, p)
	c := NewCore(BOOMConfig(), sp, mode)
	c.TrapHook = HaltingHook()
	c.Restart(p.Base)
	c.Run(4000)
	checkCensus(t, c, "after run")
	return c
}

// TestCensusWriteSites drives each taint write site that generated stimuli
// rarely reach and checks the kept census against the scan after each.
func TestCensusWriteSites(t *testing.T) {
	t.Run("cache", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		c.Mem.SetTaint(0x8000, 16, true)
		res := c.DCache.Access(0x8000, c.Cycle)
		checkCensus(t, c, "tainted fill")
		c.DCache.Write64(0x8000, 1, 0)
		checkCensus(t, c, "Write64 clearing a tainted word")
		c.DCache.Write64(0x8008, 2, 0xff00)
		checkCensus(t, c, "Write64 narrowing a tainted word")
		c.DCache.Write64(0x8008, 2, 0)
		checkCensus(t, c, "Write64 clearing the last tainted word")
		c.DCache.Write64(0x8010, 3, ^uint64(0))
		checkCensus(t, c, "Write64 tainting a clean line")
		c.DCache.TaintTag(res.Set, res.Way)
		checkCensus(t, c, "TaintTag")
		c.DCache.TaintTag(res.Set, res.Way)
		checkCensus(t, c, "TaintTag again")
		c.DCache.Write64(0x8010, 3, 0)
		checkCensus(t, c, "Write64 under a tainted tag")
		stride := uint64(c.Cfg.DCache.Sets * c.Cfg.DCache.LineBytes)
		for k := 1; k <= c.Cfg.DCache.Ways; k++ {
			c.DCache.Access(0x8000+uint64(k)*stride, c.Cycle)
		}
		if c.DCache.Probe(0x8000) {
			t.Fatal("same-set refills did not evict the tainted line")
		}
		checkCensus(t, c, "evicting refills")
		c.ICache.TaintTag(0, 0)
		c.ICache.FlushAll()
		c.DCache.FlushAll()
		checkCensus(t, c, "FlushAll")
		if n, _ := c.DCache.Census(); n != 0 {
			t.Fatalf("FlushAll left %d tainted dcache lines", n)
		}
		c.ICache.TaintTag(0, 0)
		c.DCache.TaintTag(res.Set, res.Way)
		checkCensus(t, c, "TaintTag after FlushAll")
	})
	t.Run("tlb", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		c.DTLB.Lookup(0x8000)
		c.DTLB.TaintPage(0x8000)
		checkCensus(t, c, "TaintPage")
		c.DTLB.TaintPage(0x8000)
		checkCensus(t, c, "TaintPage again")
		for i := 0; i < 2*len(c.DTLB.entries); i++ {
			c.DTLB.Lookup(0x8000 + uint64(i+1)<<c.Cfg.DTLB.PageBits)
		}
		checkCensus(t, c, "fills evicting a tainted entry")
		c.DTLB.TaintPage(0x9000)
		c.ITLB.TaintPage(0x1000)
		c.DTLB.FlushAll()
		checkCensus(t, c, "FlushAll")
	})
	t.Run("ras", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		r := c.ras
		r.Push(0x100, ^uint64(0))
		r.Push(0x200, 0xf)
		snap := r.Snapshot()
		r.Pop()
		r.Pop()
		r.Push(0x666, 0)
		r.Push(0x777, ^uint64(0))
		r.Push(0x888, 0xff)
		checkCensus(t, c, "transient pushes")
		r.Restore(snap, true)
		checkCensus(t, c, "top-only Restore")
		r.Push(0x999, 0x3)
		r.Restore(snap, false)
		checkCensus(t, c, "full Restore")
	})
	t.Run("loop", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		l := c.loop
		pc := uint64(0xc0)
		l.Update(pc, true, 0xff)
		checkCensus(t, c, "tainted update")
		l.Update(pc+uint64(4*len(l.entries)), true, 0)
		checkCensus(t, c, "re-tag dropping taint")
		l.Update(pc, false, ^uint64(0))
		checkCensus(t, c, "re-tag with taint")
	})
	t.Run("predictors", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		c.bht.Update(0x40, true, 0x1)
		c.bht.Update(0x40, false, 0x6)
		c.btb.Update(0x80, 0x1000, 0)
		c.btb.Update(0x80, 0x2000, 0x1)
		c.ind.Update(0x84, 0x1000, 0)
		checkCensus(t, c, "predictor updates")
	})
	for _, mode := range []IFTMode{IFTCellIFT, IFTDiff} {
		t.Run("spray-restart/"+mode.String(), func(t *testing.T) {
			c := censusCore(t, mode)
			c.sprayROBTaint()
			checkCensus(t, c, "sprayROBTaint")
			if c.lsuCensus.elems == 0 {
				t.Fatal("sprayROBTaint left the load/store queues clean")
			}
			c.freeLDQ(0)
			c.freeSTQ(1)
			checkCensus(t, c, "freeing queue slots")
			c.writeArch(5, false, 1, ^uint64(0))
			c.writeArch(3, true, 1, 0xf0)
			c.writeArch(5, false, 1, 0)
			c.writeArch(0, false, 1, ^uint64(0))
			checkCensus(t, c, "writeArch")
			c.Restart(0x1000)
			checkCensus(t, c, "Restart")
		})
	}
	t.Run("reset", func(t *testing.T) {
		c := censusCore(t, IFTCellIFT)
		taintEverything(c)
		checkCensus(t, c, "tainting every shadow")
		for _, m := range c.Census() {
			if m.Tainted == 0 && m.Module != "lfb" {
				t.Fatalf("module %s left clean", m.Module)
			}
		}
		c.Reset(c.Cfg, c.Mem, IFTCellIFT)
		checkCensus(t, c, "Reset")
		for _, m := range c.Census() {
			if m.Tainted != 0 || m.Bits != 0 {
				t.Fatalf("Reset left taint in %s: %+v", m.Module, m)
			}
		}
		taintEverything(c)
		checkCensus(t, c, "tainting every shadow after Reset")
	})
}

// TestTaintSumReadsCounters pins TaintSum to the scanned bit total and to
// zero allocations.
func TestTaintSumReadsCounters(t *testing.T) {
	c := censusCore(t, IFTCellIFT)
	taintEverything(c)
	want := 0
	for _, m := range scanCensus(c) {
		want += m.Bits
	}
	if got := c.TaintSum(); got != want {
		t.Fatalf("TaintSum = %d, scan totals %d", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { c.TaintSum() }); n != 0 {
		t.Fatalf("TaintSum allocates %v times per call", n)
	}
}

// taintEverything writes taint into every census-counted shadow.
func taintEverything(c *Core) {
	c.sprayROBTaint()
	c.writeArch(5, false, 1, ^uint64(0))
	c.writeArch(3, true, 1, 0xf0)
	c.fpuLatchTaint = 0xff
	c.DCache.TaintTag(1, 0)
	c.ICache.TaintTag(1, 1)
	for _, tlb := range []*TLB{c.DTLB, c.ITLB} {
		tlb.Lookup(0x8000)
		tlb.TaintPage(0x8000)
	}
	c.bht.Update(0x40, true, 0x1)
	for _, b := range []*BTB{c.btb, c.faubtb, c.ind} {
		b.Update(0x80, 0x1000, 0x1)
	}
	c.ras.Push(0x100, 0xff)
	c.loop.Update(0xc0, true, 0xf)
}

// TestCensusProbeProgramsPerCycle checks the kept census against the scan
// after every cycle of small probe programs, in every IFT mode: the reset
// probe, and a loop that forwards tainted store data to younger loads and
// ends in a load of unmapped memory, whose RoB slot inherits CellIFT taint
// that the fault then clears.
func TestCensusProbeProgramsPerCycle(t *testing.T) {
	forward := isa.MustAsm(0x1000, `
		li   t0, 0x2000
		li   t2, 0x9000
		li   t6, 0x100
		li   s1, 12
	fill:
		ld   t1, 0(t0)
		add  t3, t1, t1
		sd   t1, 0(t2)
		ld   t4, 0(t2)
		addi s1, s1, -1
		bnez s1, fill
		ld   t5, 0(t6)
		ecall
	`)
	for _, kind := range []CoreKind{KindBOOM, KindXiangShan} {
		for _, mode := range []IFTMode{IFTOff, IFTCellIFT} {
			for _, p := range []*isa.Program{resetProbeProgram(t), forward} {
				sp := testSpace(t, mem.PermRead, mem.FaultAccess)
				sp.SetTaint(0x2000, 8, true)
				loadProgram(sp, p)
				c := NewCore(ConfigFor(kind), sp, mode)
				c.TrapHook = HaltingHook()
				c.Restart(p.Base)
				for n := 0; n < 4000 && !c.Halted; n++ {
					c.Step()
					checkCensus(t, c, kind.String()+"/"+mode.String())
				}
			}
		}
	}
}
