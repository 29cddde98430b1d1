// Phantom-RSB (B2, CVE-2024-44591): transiently executed calls update return
// stack entries; BOOM's misprediction recovery restores only the TOS pointer
// and the top entry, leaving corrupted entries below TOS. This example
// triggers a transient window whose payload performs secret-dependent calls
// and shows the surviving RAS corruption on BOOM versus the full restore on
// XiangShan.
//
//	go run ./examples/phantom_rsb
package main

import (
	"fmt"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

func main() {
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		fmt.Printf("[%v]\n", kind)
		g := gen.New(77)
		found := false
		for attempt := 0; attempt < 20 && !found; attempt++ {
			seed := g.SeedFor(kind, gen.TrigBranchMispred, gen.VariantDerived)
			seed.SecretFaults = false
			st, err := g.BuildStimulus(seed)
			if err != nil {
				continue
			}
			cst, err := g.CompleteWindow(st)
			if err != nil {
				continue
			}
			run := core.RunDiff(cst.BuildSchedule(nil), core.RunOpts{
				Cfg: uarch.ConfigFor(kind), TaintTrace: true, MaxCycles: 20000,
			})
			if n := run.Pair.A.BugWitness[uarch.WitnessPhantomRSB]; n > 0 {
				found = true
				fmt.Printf("  attempt %d: transient calls corrupted %d RAS entr%s below TOS\n",
					attempt, n, map[bool]string{true: "y", false: "ies"}[n == 1])
				fmt.Println("  recovery restored only the TOS pointer and top entry => Phantom-RSB")
			}
		}
		if !found {
			fmt.Println("  no surviving RAS corruption (full snapshot restore)")
		}
	}
	fmt.Println("\nBOOM retains transient RAS corruption (B2); XiangShan's full restore does not.")
}
