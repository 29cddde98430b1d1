package uarch

import (
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
)

// testSpace builds a small layout: code (RX), data (RW), secret (configurable).
func testSpace(t testing.TB, secretPerm mem.Perm, secretFault mem.FaultKind) *mem.Space {
	t.Helper()
	sp := mem.NewSpace()
	sp.MustAddRegion(mem.Region{Name: "code", Base: 0x1000, Size: 0x1000, Perm: mem.PermRead | mem.PermExec})
	sp.MustAddRegion(mem.Region{Name: "secret", Base: 0x2000, Size: 0x1000, Perm: secretPerm, Fault: secretFault})
	sp.MustAddRegion(mem.Region{Name: "data", Base: 0x8000, Size: 0x8000, Perm: mem.PermRead | mem.PermWrite})
	return sp
}

func loadProgram(sp *mem.Space, p *isa.Program) {
	sp.WriteRaw(p.Base, p.Bytes())
}

func runCore(t testing.TB, cfg Config, sp *mem.Space, entry uint64, maxCycles int) *Core {
	t.Helper()
	c := NewCore(cfg, sp, IFTOff)
	c.TrapHook = HaltingHook()
	c.Restart(entry)
	c.Run(maxCycles)
	if !c.Halted {
		t.Fatalf("core did not halt within %d cycles (pc=%#x, rob=%d)", maxCycles, c.PC(), c.robCount)
	}
	return c
}

func TestCoreBasicArithmetic(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li   t0, 7
		li   t1, 5
		add  t2, t0, t1
		mul  t3, t0, t1
		sub  t4, t0, t1
		xor  t5, t0, t1
		sltu t6, t1, t0
		ecall
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 2000)

	want := map[int]uint64{5: 7, 6: 5, 7: 12, 28: 35, 29: 2, 30: 2, 31: 1}
	for r, v := range want {
		if got, _ := c.ArchReg(r); got != v {
			t.Errorf("x%d = %d, want %d", r, got, v)
		}
	}
}

// Co-verification: random-ish straightline programs must retire identically
// to the ISA golden model.
func TestCoreMatchesGoldenModel(t *testing.T) {
	src := `
		li   a0, 1000
		li   a1, 3
		mul  a2, a0, a1
		addi a2, a2, -17
		div  a3, a2, a1
		rem  a4, a2, a1
		sll  a5, a1, a1
		la   t0, buf
		sd   a2, 0(t0)
		ld   t1, 0(t0)
		add  t2, t1, a3
		sw   t2, 8(t0)
		lw   t3, 8(t0)
		lbu  t4, 8(t0)
		sltu s0, a3, a2
		andi s1, a2, 0xff
		ecall
	`
	progSrc := "j start\nbuf:\n.word 0\n.word 0\n.word 0\n.word 0\nstart:\n" + src

	for _, kind := range []CoreKind{KindBOOM, KindXiangShan} {
		sp := testSpace(t, mem.PermRead, mem.FaultAccess)
		// Place code in data region? No: code region is RX; buf must be
		// writable. Use data region for the whole image (RWX for this test).
		sp2 := mem.NewSpace()
		sp2.MustAddRegion(mem.Region{Name: "all", Base: 0x1000, Size: 0x8000,
			Perm: mem.PermRead | mem.PermWrite | mem.PermExec})
		_ = sp
		p := isa.MustAsm(0x1000, progSrc)
		loadProgram(sp2, p)

		gold := isasim.New(sp2.Clone(), 0x1000)
		gold.Run(10000)

		c := runCore(t, ConfigFor(kind), sp2, 0x1000, 5000)
		for r := 1; r < 32; r++ {
			got, _ := c.ArchReg(r)
			if got != gold.X[r] {
				t.Errorf("%v: x%d(%s) = %#x, golden %#x", kind, r, isa.RegName(r), got, gold.X[r])
			}
		}
	}
}

func TestCoreBranchMispredictCreatesTransientWindow(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	// Branch is actually taken; untrained BHT predicts not-taken, so the
	// fall-through executes transiently and is squashed.
	p := isa.MustAsm(0x1000, `
		li   t0, 1
		beq  t0, t0, target
		addi t1, zero, 99     # transient
		addi t2, zero, 98     # transient
	target:
		addi t3, zero, 1
		ecall
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 2000)

	if got, _ := c.ArchReg(6); got != 0 {
		t.Errorf("transient write leaked architecturally: t1 = %d", got)
	}
	if got, _ := c.ArchReg(28); got != 1 {
		t.Errorf("t3 = %d, want 1", got)
	}
	// The fall-through pc must appear in the trace as enqueued+squashed.
	ws := c.Trace.Window(p.Labels["target"]-8, p.Labels["target"])
	if !ws.Triggered() {
		t.Fatalf("transient window not observed: %+v trace=%v", ws, c.Trace)
	}
	found := false
	for _, s := range c.Trace.Squashes {
		if s.Reason == SquashBranchMispredict {
			found = true
		}
	}
	if !found {
		t.Fatalf("no branch-mispredict squash recorded: %+v", c.Trace.Squashes)
	}
}

func TestCoreMeltdownForwardsFaultingLoad(t *testing.T) {
	// Secret region unreadable -> access fault; dependent transient load
	// must fill a secret-indexed dcache line.
	sp := testSpace(t, 0, mem.FaultAccess)
	secretVal := uint64(3)
	sp.Write64(0x2000, secretVal, 0)
	sp.SetTaint(0x2000, 8, true)
	p := isa.MustAsm(0x1000, `
		la   t0, 0x2000       # secret address
		la   t1, 0x8000       # leak array
		ld   s0, 0(t0)        # faulting load (Meltdown)
		slli s1, s0, 6        # secret * 64
		add  t2, t1, s1
		ld   t3, 0(t2)        # secret-indexed fill
		nop
		ecall
	`)
	loadProgram(sp, p)

	c := NewCore(BOOMConfig(), sp, IFTCellIFT)
	c.TrapHook = HaltingHook()
	c.Restart(0x1000)
	c.Run(3000)
	if !c.Halted {
		t.Fatal("did not halt")
	}

	// The trap must be a load access fault.
	committedFault := false
	for _, r := range c.Trace.Insts {
		if r.Exception == isasim.CauseLoadAccessFault {
			committedFault = true
		}
	}
	if !committedFault {
		t.Fatalf("no load access fault committed; trace=%v", c.Trace)
	}
	// The dependent loads must have executed transiently.
	ws := c.Trace.Window(0x1000, 0x2000)
	if ws.Squashed == 0 {
		t.Fatalf("no transient instructions: %+v", ws)
	}
	// The secret-indexed line must be present and its tag control-tainted.
	if !c.DCache.Probe(0x8000 + secretVal*64) {
		t.Error("secret-indexed line not cached")
	}
	if lines := c.DCache.TaintedLinePositions(); len(lines) == 0 {
		t.Error("no control-tainted dcache lines (secret-indexed fill untracked)")
	}
	if c.TaintSum() == 0 {
		t.Error("taint sum is zero after transient secret access")
	}
}

func TestCoreStoreLoadForwarding(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		la  t0, 0x8000
		li  t1, 1234
		sd  t1, 0(t0)
		ld  t2, 0(t0)
		ecall
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 2000)
	if got, _ := c.ArchReg(7); got != 1234 {
		t.Errorf("forwarded load t2 = %d, want 1234", got)
	}
}

func TestCoreMemoryDisambiguationSquash(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	// Store address depends on a slow division; the younger load to the same
	// address speculates past it, reads stale memory, and must be squashed
	// and replayed when the store resolves.
	p := isa.MustAsm(0x1000, `
		la   t0, 0x8000
		sd   zero, 0(t0)     # stale value 0
		li   t1, 64
		li   t2, 2
		div  t3, t1, t2      # slow: 32
		add  t4, t0, t3
		addi t4, t4, -32     # t4 = 0x8000 after div resolves
		li   t5, 77
		sd   t5, 0(t4)       # store with slow address
		ld   t6, 0(t0)       # speculative load, same address
		ecall
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 4000)
	if got, _ := c.ArchReg(31); got != 77 {
		t.Errorf("t6 = %d, want 77 (memory ordering violated architecturally)", got)
	}
	found := false
	for _, s := range c.Trace.Squashes {
		if s.Reason == SquashMemOrdering {
			found = true
		}
	}
	if !found {
		t.Fatalf("no memory-ordering squash: %+v", c.Trace.Squashes)
	}
}

func TestCoreReturnAddressPrediction(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li   s0, 0
		call fn
		addi s0, s0, 1
		ecall
	fn:
		addi s1, zero, 5
		ret
	`)
	loadProgram(sp, p)
	c := runCore(t, BOOMConfig(), sp, 0x1000, 2000)
	if got, _ := c.ArchReg(8); got != 1 {
		t.Errorf("s0 = %d, want 1", got)
	}
	if got, _ := c.ArchReg(9); got != 5 {
		t.Errorf("s1 = %d, want 5", got)
	}
}

func TestCoreIllegalAtDecodeBlocksWindowOnBOOM(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li t0, 1
		.illegal
		addi t1, zero, 42    # must NOT enter the RoB on BOOM
		ecall
	`)
	loadProgram(sp, p)

	boom := runCore(t, BOOMConfig(), sp, 0x1000, 2000)
	illegalPC := p.Base + 4 + 4 // after li (1 word) ... actually li 1 = 1 word
	_ = illegalPC
	ws := boom.Trace.Window(0x1008, 0x1010)
	if ws.Enqueued != 0 {
		t.Errorf("BOOM: post-illegal instruction entered RoB (window %+v)", ws)
	}

	xs := runCore(t, XiangShanConfig(), sp, 0x1000, 2000)
	ws = xs.Trace.Window(0x1008, 0x1010)
	if ws.Enqueued == 0 || !ws.Triggered() {
		t.Errorf("XiangShan: illegal instruction opened no transient window (%+v)", ws)
	}
}

func TestCoreMeltdownSamplingTruncation(t *testing.T) {
	// B1: on XiangShan, a masked illegal address truncates to a valid one on
	// the data path, sampling the secret at the truncated address.
	sp := testSpace(t, mem.PermRead, mem.FaultAccess) // secret readable but we use an unmapped high address
	secret := uint64(5)
	sp.Write64(0x2000, secret, 0)
	sp.SetTaint(0x2000, 8, true)
	p := isa.MustAsm(0x1000, `
		li   t0, 0x8000000000002000   # illegal address, truncates to 0x2000
		la   t1, 0x8000
		ld   s0, 0(t0)                # faults; data path samples 0x2000
		slli s1, s0, 6
		add  t2, t1, s1
		ld   t3, 0(t2)
		ecall
	`)
	loadProgram(sp, p)

	xs := NewCore(XiangShanConfig(), sp, IFTCellIFT)
	xs.TrapHook = HaltingHook()
	xs.Restart(0x1000)
	xs.Run(3000)
	if xs.BugWitness[WitnessMeltdownSampling] == 0 {
		t.Fatal("B1 truncation path did not fire")
	}
	if !xs.DCache.Probe(0x8000 + secret*64) {
		t.Error("sampled-secret-indexed line not cached")
	}

	// BOOM (no truncation): the unmapped address forwards nothing.
	boom := NewCore(BOOMConfig(), sp.Clone(), IFTCellIFT)
	boom.TrapHook = HaltingHook()
	boom.Restart(0x1000)
	boom.Run(3000)
	if boom.DCache.Probe(0x8000 + secret*64) {
		t.Error("BOOM sampled the secret despite lacking B1")
	}
}

func TestCoreFetchFaultTraps(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		j 0x7000
	`)
	_ = p
	loadProgram(sp, p)
	// 0x7000 is unmapped -> fetch fault -> trap -> halt.
	c := runCore(t, BOOMConfig(), sp, 0x1000, 2000)
	if c.TrapCount == 0 {
		t.Fatal("no trap on fetch fault")
	}
}
