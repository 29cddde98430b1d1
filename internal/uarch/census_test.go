package uarch_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// The test lives in uarch_test (external) so it can build stimuli through
// internal/gen exactly as campaigns do.

// censusSecret is the secret planted in the A instance; B gets its
// complement, as in the engine's differential runs.
var censusSecret = []byte{0xa5, 0x3c, 0x96, 0x0f, 0x11, 0xee, 0x42, 0x7b}

// censusDUT is one reusable DUT slot, built on first use and reset in place
// afterwards, like the engine's execution contexts.
type censusDUT struct {
	space *mem.Space
	core  *uarch.Core
	rt    *swapmem.Runtime
}

func (d *censusDUT) start(secret []byte, cfg uarch.Config, mode uarch.IFTMode, sched *swapmem.Schedule) *uarch.Core {
	if d.core == nil {
		d.space = swapmem.NewSpace(secret)
		d.core = uarch.NewCore(cfg, d.space, mode)
		d.rt = swapmem.NewRuntime(d.core, d.space, sched)
	} else {
		swapmem.ResetSpace(d.space, secret)
		d.core.Reset(cfg, d.space, mode)
		d.rt.Rebind(d.core, d.space, sched)
	}
	d.core.TaintTraceOn = true
	d.rt.Start()
	return d.core
}

// TestCensusMatchesScanEveryCycle is the census oracle property: for every
// registered scenario family on both cores, the census kept at the taint
// write sites equals a full rescan of every shadow after every cycle — on
// both instances of a Phase-2-shaped diffIFT pair and on a CellIFT single
// core, and again on the same cores after Reset.
func TestCensusMatchesScanEveryCycle(t *testing.T) {
	const seeds = 3
	const maxCycles = 20000
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := uarch.ConfigFor(kind)
			var a, b, single censusDUT
			tainted := map[string]bool{}
			var buf []uarch.ModuleTaint
			check := func(c *uarch.Core, what string) {
				t.Helper()
				buf = c.CensusInto(buf[:0])
				if want := uarch.ScanCensus(c); !reflect.DeepEqual(buf, want) {
					t.Fatalf("%s, cycle %d: census diverges from scan:\nkept: %v\nscan: %v", what, c.Cycle, buf, want)
				}
				for _, m := range buf {
					if m.Tainted > 0 {
						tainted[m.Module] = true
					}
				}
			}
			for round := 0; round < 2; round++ {
				for _, fam := range scenario.Names() {
					for seed := int64(1); seed <= seeds; seed++ {
						g := gen.New(seed)
						s, err := g.SeedScenario(kind, fam)
						if err != nil {
							t.Fatal(err)
						}
						if seed%2 == 0 {
							s.Variant = gen.VariantRandom
						}
						st, err := g.BuildStimulus(s)
						if err != nil {
							t.Fatal(err)
						}
						cst, err := g.CompleteWindow(st)
						if err != nil {
							t.Fatal(err)
						}
						sched := cst.BuildSchedule(nil)
						what := fmt.Sprintf("round %d, %s seed %d", round, fam, seed)

						pair := uarch.NewPair(
							a.start(censusSecret, cfg, uarch.IFTDiff, sched),
							b.start(swapmem.FlipSecret(censusSecret), cfg, uarch.IFTDiff, sched))
						for n := 0; n < maxCycles && !(pair.A.Halted && pair.B.Halted); n++ {
							pair.Step()
							check(pair.A, what+", diffIFT A")
							check(pair.B, what+", diffIFT B")
						}

						c := single.start(censusSecret, cfg, uarch.IFTCellIFT, sched)
						for n := 0; n < maxCycles && !c.Halted; n++ {
							c.Step()
							check(c, what+", CellIFT")
						}
					}
				}
			}
			// The stimuli must actually reach the shadows, or the property
			// holds vacuously. The branch target buffers and the RAS are
			// rarely tainted by generated stimuli; TestCensusWriteSites
			// drives their write sites directly.
			var mods []string
			for m := range tainted {
				mods = append(mods, m)
			}
			sort.Strings(mods)
			for _, want := range []string{"frontend", "rob", "regfile", "lsu", "dcache", "icache", "lfb", "dtlb", "itlb", "l2tlb", "bht", "loop", "fpu"} {
				if !tainted[want] {
					t.Errorf("no stimulus tainted %s (tainted: %v)", want, mods)
				}
			}
			t.Logf("modules tainted: %v", mods)
		})
	}
}
