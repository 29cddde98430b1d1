package experiments

import (
	"fmt"
	"io"

	"dejavuzz/internal/campaign"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/specdoctor"
	"dejavuzz/internal/uarch"
)

// Table3Cell is one fuzzer x trigger measurement.
type Table3Cell struct {
	Triggerable bool
	TO          float64
	ETO         float64
	HasETO      bool
}

func (c Table3Cell) String() string {
	if !c.Triggerable {
		return "fail"
	}
	if c.HasETO {
		return fmt.Sprintf("%.1f (%.1f)", c.TO, c.ETO)
	}
	return fmt.Sprintf("%.1f", c.TO)
}

// Table3Result maps fuzzer name -> trigger -> cell, per core.
type Table3Result struct {
	Core  uarch.CoreKind
	Rows  map[string]map[gen.TriggerType]Table3Cell
	Order []string
}

// Table3 measures training overhead per transient-window type for DejaVuzz,
// DejaVuzz* (random training) and — on BOOM — SpecDoctor, over `samples`
// Phase-1 attempts per cell. Each (fuzzer, core) row owns a private
// deterministic fuzzer, so rows run concurrently on r's pool (r.Workers
// wide, progress to r.Progress) without changing any cell.
func Table3(w io.Writer, samples int, seed int64, r campaign.Runner) []Table3Result {
	cores := []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan}
	out := make([]Table3Result, len(cores))
	type rowJob struct {
		core int
		name string
		run  func() map[gen.TriggerType]Table3Cell
	}
	var jobs []rowJob
	for ci, kind := range cores {
		out[ci] = Table3Result{Core: kind, Rows: map[string]map[gen.TriggerType]Table3Cell{}}
		for _, variant := range []gen.Variant{gen.VariantDerived, gen.VariantRandom} {
			out[ci].Order = append(out[ci].Order, variant.String())
			jobs = append(jobs, rowJob{core: ci, name: variant.String(), run: func() map[gen.TriggerType]Table3Cell {
				opts := core.DefaultOptions(kind)
				opts.Seed = seed
				f := core.NewFuzzer(opts)
				cells := map[gen.TriggerType]Table3Cell{}
				for _, t := range gen.AllTriggerTypes() {
					st := f.MeasureTraining(t, variant, samples)
					cells[t] = Table3Cell{
						Triggerable: st.Triggerable(),
						TO:          st.AvgTO,
						ETO:         st.AvgETO,
						HasETO:      variant == gen.VariantDerived,
					}
				}
				return cells
			}})
		}
		if kind == uarch.KindBOOM {
			out[ci].Order = append(out[ci].Order, "SpecDoctor")
			jobs = append(jobs, rowJob{core: ci, name: "SpecDoctor", run: func() map[gen.TriggerType]Table3Cell {
				sd := specdoctor.New(specdoctor.Options{Core: kind, Seed: seed})
				cells := map[gen.TriggerType]Table3Cell{}
				camp := sd.Campaign(samples*4, core.DefaultSecret)
				for _, t := range gen.AllTriggerTypes() {
					if to, ok := camp.TriggerTO[t]; ok {
						cells[t] = Table3Cell{Triggerable: true, TO: to}
					} else {
						cells[t] = Table3Cell{}
					}
				}
				return cells
			}})
		}
	}

	// Each job fills its own slot; row maps are installed sequentially
	// afterwards, so only the progress writer needs synchronisation.
	progress := campaign.NewProgressLog(r.Progress)
	cells := make([]map[gen.TriggerType]Table3Cell, len(jobs))
	var pool []func()
	for ji, j := range jobs {
		pool = append(pool, func() {
			progress.Logf("[table3/%v/%s] start: %d samples per window type", cores[j.core], j.name, samples)
			cells[ji] = j.run()
			progress.Logf("[table3/%v/%s] done", cores[j.core], j.name)
		})
	}
	campaign.RunJobs(r.Workers, pool)
	for ji, j := range jobs {
		out[j.core].Rows[j.name] = cells[ji]
	}

	fmt.Fprintln(w, "Table 3: Training overhead for different types of transient windows")
	for _, res := range out {
		fmt.Fprintf(w, "\n[%v]\n%-12s", res.Core, "Fuzzer")
		for _, t := range gen.AllTriggerTypes() {
			fmt.Fprintf(w, " %-14s", shortTrig(t))
		}
		fmt.Fprintln(w)
		for _, name := range res.Order {
			fmt.Fprintf(w, "%-12s", name)
			for _, t := range gen.AllTriggerTypes() {
				fmt.Fprintf(w, " %-14s", res.Rows[name][t])
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

func shortTrig(t gen.TriggerType) string {
	switch t {
	case gen.TrigAccessFault:
		return "acc-fault"
	case gen.TrigPageFault:
		return "page-fault"
	case gen.TrigMisalign:
		return "misalign"
	case gen.TrigIllegal:
		return "illegal"
	case gen.TrigMemDisambig:
		return "mem-disamb"
	case gen.TrigBranchMispred:
		return "branch"
	case gen.TrigJumpMispred:
		return "ind-jump"
	case gen.TrigReturnMispred:
		return "return"
	}
	return t.String()
}
