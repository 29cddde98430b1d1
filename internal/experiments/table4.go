package experiments

import (
	"fmt"
	"io"
	"time"

	"dejavuzz/internal/campaign"
	"dejavuzz/internal/core"
	"dejavuzz/internal/ift"
	"dejavuzz/internal/rtl"
	"dejavuzz/internal/uarch"
)

// Table4Result carries the instrumentation-overhead measurements.
type Table4Result struct {
	Core           uarch.CoreKind
	CompileBase    time.Duration
	CompileCellIFT time.Duration
	CellIFTTimeout bool
	CompileDiffIFT time.Duration
	// SimTimes[poc][mode]: wall time for Base / CellIFT / diffIFT.
	SimTimes map[string][3]time.Duration
}

// Table4 measures (a) instrumentation ("compile") time over the RTL core
// models — CellIFT must flatten every memory first, diffIFT instruments the
// word-level IR directly — and (b) simulation time for the five attack PoCs
// under no IFT, CellIFT (flattened shadow-circuit co-simulation, one
// instance) and diffIFT (word-level shadow co-simulation, two instances).
// compileBudget bounds the CellIFT flattening+instrumentation time; the
// XiangShan-scale model is expected to blow past it (the paper's 8h timeout).
// Measurements are wall-clock, so the cells always run sequentially;
// progress, when non-nil, receives a line per step.
func Table4(w io.Writer, compileBudget time.Duration, simCycles int, progress io.Writer) []Table4Result {
	logf := campaign.NewProgressLog(progress).Logf
	var out []Table4Result
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		logf("[table4/%v] compiling", kind)
		cfg := uarch.ConfigFor(kind)
		res := Table4Result{Core: kind, SimTimes: map[string][3]time.Duration{}}

		// Compile: base = elaboration only.
		t0 := time.Now()
		model := BuildCoreModel(cfg)
		_ = rtl.NewSim(model)
		res.CompileBase = time.Since(t0)

		// CellIFT: flatten memories, then instrument, within the budget.
		t0 = time.Now()
		done := make(chan *ift.Shadow, 1)
		go func() {
			flat := rtl.FlattenMemories(model)
			sh, err := ift.Instrument(flat, ift.ModeCellIFT)
			if err != nil {
				done <- nil
				return
			}
			done <- sh
		}()
		select {
		case <-done:
			res.CompileCellIFT = time.Since(t0)
			if res.CompileCellIFT > compileBudget {
				res.CellIFTTimeout = true
			}
		case <-time.After(compileBudget):
			res.CellIFTTimeout = true
			res.CompileCellIFT = compileBudget
		}

		// diffIFT: word-level instrumentation, two instances.
		t0 = time.Now()
		if _, err := ift.NewPair(model); err != nil {
			panic(err)
		}
		res.CompileDiffIFT = time.Since(t0)

		// Simulation: the five attacks under the three disciplines. The IFT
		// modes co-simulate the corresponding shadow circuit each cycle —
		// the work VCS performs on the instrumented netlist.
		flatModel := rtl.FlattenMemories(model)
		for _, poc := range AllPoCs() {
			logf("[table4/%v] simulating %s", kind, poc.Name)
			var times [3]time.Duration
			opts := core.RunOpts{Cfg: cfg, MaxCycles: simCycles}

			t0 = time.Now()
			core.RunSingle(poc.Schedule.Clone(), opts)
			times[0] = time.Since(t0)

			t0 = time.Now()
			run := core.RunSingle(poc.Schedule.Clone(), core.RunOpts{
				Cfg: cfg, Mode: uarch.IFTCellIFT, TaintTrace: true, MaxCycles: simCycles,
			})
			coSimulate(flatModel, ift.ModeCellIFT, run.Core.Cycle)
			times[1] = time.Since(t0)

			t0 = time.Now()
			drun := core.RunDiff(poc.Schedule.Clone(), core.RunOpts{
				Cfg: cfg, TaintTrace: true, MaxCycles: simCycles,
			})
			coSimulateDiff(model, drun.Pair.A.Cycle)
			times[2] = time.Since(t0)

			res.SimTimes[poc.Name] = times
		}
		out = append(out, res)
	}

	fmt.Fprintln(w, "Table 4: Overhead of differential information flow tracking")
	for _, r := range out {
		fmt.Fprintf(w, "\n[%v]\n", r.Core)
		cell := r.CompileCellIFT.String()
		if r.CellIFTTimeout {
			cell = fmt.Sprintf("timeout after %v", r.CompileCellIFT)
		}
		fmt.Fprintf(w, "%-14s base=%-12v CellIFT=%-22s diffIFT=%v\n", "Compile", r.CompileBase, cell, r.CompileDiffIFT)
		for _, poc := range AllPoCs() {
			t := r.SimTimes[poc.Name]
			fmt.Fprintf(w, "%-14s base=%-12v CellIFT=%-22v diffIFT=%v\n", poc.Name, t[0], t[1], t[2])
		}
	}
	return out
}

// coSimulate steps the instrumented shadow circuit for the measured cycle
// count, charging the per-cycle shadow-logic cost the RTL simulator pays.
func coSimulate(model *rtl.Design, mode ift.Mode, cycles int) {
	sh := ift.MustInstrument(model, mode)
	if len(model.Inputs) > 0 {
		sh.Poke(model.Inputs[0], 1, 1)
	}
	for i := 0; i < cycles; i++ {
		sh.Step()
	}
}

func coSimulateDiff(model *rtl.Design, cycles int) {
	pair, err := ift.NewPair(model)
	if err != nil {
		panic(err)
	}
	if len(model.Inputs) > 0 {
		pair.A.Poke(model.Inputs[0], 1, 1)
		pair.B.Poke(model.Inputs[0], 0, 1)
	}
	for i := 0; i < cycles; i++ {
		pair.Step()
	}
}
