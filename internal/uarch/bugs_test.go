package uarch

import (
	"reflect"
	"sort"
	"testing"

	"dejavuzz/internal/isa"
	"dejavuzz/internal/mem"
)

// TestPhantomBTB (B3): an indirect-jump misprediction resolving in the same
// cycle as an exception commit pushes the jump's corrected target into the
// BTB entry of the excepting PC.
func TestPhantomBTB(t *testing.T) {
	// The jalr's target depends on a transient cache-missing load issued
	// behind the faulting trigger, so its resolution time sweeps relative to
	// the trap drain; some offset lands the resolution in the exception
	// commit's redirect-arbitration window.
	found := false
	for k := 0; k <= 48 && !found; k++ {
		sp := testSpace(t, mem.PermRead, mem.FaultAccess)
		src := `
			li   t6, 0x7000        # unmapped -> access fault at commit
			li   t4, 0x9000        # data line, warmed below
			ld   a3, 0(t4)         # warm TLB + dcache architecturally
			ld   t5, 0(t6)         # the faulting trigger: drain starts here
			ld   a2, 0(t4)         # transient hit; addi chain sweeps timing
		`
		for i := 0; i < k; i++ {
			src += "addi a2, a2, 4\n"
		}
		src += `
			jalr x0, 0(a2)
			ecall
		`
		p := isa.MustAsm(0x1000, src)
		loadProgram(sp, p)
		c := NewCore(BOOMConfig(), sp, IFTOff)
		c.TrapHook = HaltingHook()
		c.Restart(0x1000)
		c.Run(3000)
		if c.BugWitness[WitnessPhantomBTB] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("B3 race never fired across resolution offsets")
	}
}

// TestSpectreRefetch (B4): a transient fetch that misses the icache keeps
// the fetch port busy across the squash, delaying post-window fetches.
func TestSpectreRefetch(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li   t6, 0x7000       # fault trigger
		ld   t5, 0(t6)
		j    0x1800           # transient: far jump -> icache miss
		ecall
	`)
	loadProgram(sp, p)
	// Make the far target fetchable.
	far := isa.MustAsm(0x1800, "nop\necall")
	loadProgram(sp, far)

	c := NewCore(BOOMConfig(), sp, IFTOff)
	c.TrapHook = HaltingHook()
	c.Restart(0x1000)
	c.Run(3000)
	if c.BugWitness[WitnessSpectreRefetchMiss] == 0 {
		t.Fatal("transient icache miss did not occupy the fetch port")
	}
}

// TestSpectreReload (B5): XiangShan's single load write-back port serialises
// simultaneous load completions.
func TestSpectreReload(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	// Warm three lines, then issue parallel cache-hit loads: with one WB
	// port their completions collide.
	p := isa.MustAsm(0x1000, `
		li t0, 0x8000
		ld a0, 0(t0)
		ld a1, 64(t0)
		ld a2, 128(t0)
		ld a3, 0(t0)
		ld a4, 64(t0)
		ld a5, 128(t0)
		ecall
	`)
	loadProgram(sp, p)
	xs := runCore(t, XiangShanConfig(), sp, 0x1000, 3000)
	if xs.BugWitness[WitnessSpectreReload] == 0 {
		t.Fatal("no write-back port contention on XiangShan")
	}

	boom := runCore(t, BOOMConfig(), sp.Clone(), 0x1000, 3000)
	if boom.BugWitness[WitnessSpectreReload] != 0 {
		t.Fatal("BOOM (2 WB ports) reported reload contention")
	}
}

// TestFDivContention: a long-latency fdiv occupies the unit, delaying a
// second fdiv (the Spectre-Rewind timing channel).
func TestFDivContention(t *testing.T) {
	sp := testSpace(t, mem.PermRead, mem.FaultAccess)
	p := isa.MustAsm(0x1000, `
		li t0, 0x4010000000000000
		fmv.d.x fa0, t0
		fdiv.d fa1, fa0, fa0
		fdiv.d fa2, fa0, fa0
		ecall
	`)
	loadProgram(sp, p)
	withContention := runCore(t, BOOMConfig(), sp, 0x1000, 3000).Cycle

	p2 := isa.MustAsm(0x1000, `
		li t0, 0x4010000000000000
		fmv.d.x fa0, t0
		fdiv.d fa1, fa0, fa0
		nop
		ecall
	`)
	sp2 := testSpace(t, mem.PermRead, mem.FaultAccess)
	loadProgram(sp2, p2)
	single := runCore(t, BOOMConfig(), sp2, 0x1000, 3000).Cycle
	if withContention <= single {
		t.Fatalf("no fdiv serialisation: %d vs %d cycles", withContention, single)
	}
}

// TestDiffPairTimingChannel: a secret-dependent dcache access pattern makes
// the two DUT instances take different cycle counts.
func TestDiffPairConstantTimeHolds(t *testing.T) {
	// With an encode-free program the instances must be cycle-identical:
	// the constant-time oracle's baseline.
	sp1 := testSpace(t, mem.PermRead, mem.FaultAccess)
	sp2 := testSpace(t, mem.PermRead, mem.FaultAccess)
	sp1.Write64(0x2000, 0xaaaa, 0)
	sp2.Write64(0x2000, 0x5555, 0)
	p := isa.MustAsm(0x1000, `
		la t0, 0x2000
		ld s0, 0(t0)
		add t1, s0, s0
		ecall
	`)
	loadProgram(sp1, p)
	loadProgram(sp2, p)

	a := NewCore(BOOMConfig(), sp1, IFTOff)
	b := NewCore(BOOMConfig(), sp2, IFTOff)
	a.TrapHook = HaltingHook()
	b.TrapHook = HaltingHook()
	a.Restart(0x1000)
	b.Restart(0x1000)
	pair := NewPair(a, b)
	ca, cb := pair.Run(3000)
	if ca != cb {
		t.Fatalf("non-encoding program shows timing difference: %d vs %d", ca, cb)
	}
}

// TestCensusModulesComplete pins the census modules and their order:
// coverage points and checkpoints key on the names, the coverage matrix
// keeps one row per position (CensusRow, CensusModule), and Phase 3
// compares two censuses position by position.
func TestCensusModulesComplete(t *testing.T) {
	want := []string{"frontend", "rob", "regfile", "lsu", "dcache",
		"icache", "lfb", "dtlb", "itlb", "l2tlb", "bht", "btb", "faubtb",
		"indbtb", "ras", "loop", "fpu"}
	if len(want) != NumCensusModules {
		t.Fatalf("NumCensusModules = %d, want %d", NumCensusModules, len(want))
	}
	for i, m := range want {
		if CensusRow(m) != i || CensusModule(i) != m {
			t.Errorf("%s: CensusRow = %d, CensusModule(%d) = %q", m, CensusRow(m), i, CensusModule(i))
		}
	}
	for _, m := range []string{"", "isasim/x05", "isasim/x05@p1", "rob ", "Rob", "frontend2"} {
		if r := CensusRow(m); r != -1 {
			t.Errorf("CensusRow(%q) = %d, want -1", m, r)
		}
	}
	for _, cfg := range []Config{BOOMConfig(), XiangShanConfig()} {
		sp := testSpace(t, mem.PermRead, mem.FaultAccess)
		c := NewCore(cfg, sp, IFTOff)
		var got []string
		for _, m := range c.Census() {
			got = append(got, m.Module)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s census modules:\n got %v\nwant %v", cfg.Name, got, want)
		}
	}
}

// TestWitnessLabels pins the witness labels and their order: findings carry
// the labels as bug names, and core lists them by walking BugWitness in
// index order, which must be the labels' sorted order.
func TestWitnessLabels(t *testing.T) {
	var got []string
	for w := range NumWitnesses {
		got = append(got, w.String())
	}
	want := []string{"meltdown-sampling", "phantom-btb", "phantom-rsb", "spectre-refetch-miss", "spectre-reload"}
	if !reflect.DeepEqual(got, want) || !sort.StringsAreSorted(got) {
		t.Fatalf("witness labels %v, want %v in sorted order", got, want)
	}
}
