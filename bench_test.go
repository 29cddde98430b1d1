package dejavuzz_test

// One benchmark per evaluation artifact (Tables 2-5, Figures 6-7, the §6.3
// liveness evaluation) plus ablation benches for the design choices called
// out in DESIGN.md. The experiment harnesses print the paper-shaped rows;
// here they run at reduced scale under testing.B so `go test -bench=.`
// regenerates every result. cmd/dvz-experiments runs them at full scale.

import (
	"io"
	"testing"
	"time"

	"dejavuzz/internal/core"
	"dejavuzz/internal/experiments"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// BenchmarkTable2CoreSummary regenerates the core-summary table (model
// elaboration and statistics).
func BenchmarkTable2CoreSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

// BenchmarkTable3TrainingOverhead regenerates the training-overhead table:
// DejaVuzz vs DejaVuzz* vs SpecDoctor across all eight window types on both
// cores.
func BenchmarkTable3TrainingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Table3(io.Discard, 2, int64(i)+1)
		if len(results) != 2 {
			b.Fatal("expected results for both cores")
		}
	}
}

// BenchmarkTable4IFTOverhead regenerates the instrumentation/simulation
// overhead comparison (base vs CellIFT vs diffIFT).
func BenchmarkTable4IFTOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard, 2*time.Second, 3000)
	}
}

// BenchmarkFigure6TaintTraces regenerates the per-cycle taint-sum traces for
// the five attacks under diffIFT, diffIFT_FN and CellIFT.
func BenchmarkFigure6TaintTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := experiments.Figure6(io.Discard, 4000)
		if len(series) != 15 {
			b.Fatalf("expected 15 series, got %d", len(series))
		}
	}
}

// BenchmarkFigure7Coverage regenerates the coverage-growth comparison
// (DejaVuzz vs DejaVuzz− vs SpecDoctor replay).
func BenchmarkFigure7Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(io.Discard, 30, 1, int64(i)+1)
	}
}

// BenchmarkTable5BugHunt regenerates the bug-discovery matrix on both cores.
func BenchmarkTable5BugHunt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard, 60, int64(i)+1)
	}
}

// BenchmarkLivenessAnalysis regenerates the §6.3 liveness evaluation over
// SpecDoctor phase-3 positives.
func BenchmarkLivenessAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Liveness(io.Discard, 12, int64(i)+1)
	}
}

// --- campaign engine scaling -----------------------------------------------

// benchCampaign runs one fixed-size campaign per b.N and reports fuzzing
// iterations per second. The campaign options are identical across worker
// counts (the engine guarantees identical results), so the benchmarks
// measure pure scheduling overhead and scaling.
func benchCampaign(b *testing.B, workers int) {
	const iterations = 64
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(uarch.KindBOOM)
		opts.Seed = 42
		opts.Iterations = iterations
		opts.Workers = workers
		opts.MergeEvery = 16
		core.NewFuzzer(opts).Run()
	}
	b.ReportMetric(float64(iterations*b.N)/b.Elapsed().Seconds(), "iters/s")
}

// BenchmarkCampaignWorkers1 is the sequential baseline for the sharded
// campaign engine.
func BenchmarkCampaignWorkers1(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignWorkers8 measures the same campaign with 8 workers; on an
// 8-core runner its iters/s should be ≥3× the Workers1 baseline (on fewer
// cores it degrades gracefully — results stay identical either way).
func BenchmarkCampaignWorkers8(b *testing.B) { benchCampaign(b, 8) }

// --- ablation benches (DESIGN.md §4) ---------------------------------------

// BenchmarkAblationTrainingReduction compares Phase 1 with and without the
// training-reduction strategy.
func BenchmarkAblationTrainingReduction(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions(uarch.KindBOOM)
			opts.UseReduction = on
			f := core.NewFuzzer(opts)
			for i := 0; i < b.N; i++ {
				st := f.MeasureTraining(gen.TrigBranchMispred, gen.VariantDerived, 2)
				if on && st.Triggerable() && st.AvgETO == 0 {
					b.Fatal("reduced training reported zero effective overhead")
				}
			}
		})
	}
}

// BenchmarkAblationCoverageFeedback compares campaigns with and without
// taint-coverage-guided mutation (DejaVuzz vs DejaVuzz−).
func BenchmarkAblationCoverageFeedback(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "feedback-off"
		if on {
			name = "feedback-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(uarch.KindBOOM)
				opts.Iterations = 25
				opts.Seed = int64(i) + 1
				opts.UseCoverageFeedback = on
				core.NewFuzzer(opts).Run()
			}
		})
	}
}

// BenchmarkAblationLiveness compares leakage analysis with and without
// tainted-sink liveness annotations.
func BenchmarkAblationLiveness(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "liveness-off"
		if on {
			name = "liveness-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(uarch.KindBOOM)
				opts.Iterations = 25
				opts.Seed = int64(i) + 3
				opts.UseLiveness = on
				core.NewFuzzer(opts).Run()
			}
		})
	}
}

// BenchmarkSimulationThroughput measures raw core-simulation speed in each
// tracking mode (the Table 4 simulation rows, normalised per cycle). Like a
// campaign shard, each sub-benchmark builds one execution context and one
// schedule before the timer and resets the context for every run, so the
// timer sees the cycle loop and the reset rather than DUT construction. It
// reports the simulated core-cycles of one run (cycles/op, both cores of a
// diffIFT pair; deterministic) and the host time per simulated cycle
// (ns/cycle).
func BenchmarkSimulationThroughput(b *testing.B) {
	poc := experiments.Meltdown()
	cfg := uarch.BOOMConfig()
	bench := func(name string, run func(x *core.ExecContext, sched *swapmem.Schedule) int) {
		b.Run(name, func(b *testing.B) {
			x, sched := core.NewExecContext(), poc.Schedule.Clone()
			b.ResetTimer()
			cycles := 0
			for i := 0; i < b.N; i++ {
				cycles = run(x, sched)
			}
			b.ReportMetric(float64(cycles), "cycles/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycles), "ns/cycle")
		})
	}
	bench("base", func(x *core.ExecContext, sched *swapmem.Schedule) int {
		return x.RunSingle(sched, core.RunOpts{Cfg: cfg, MaxCycles: 4000}).Core.Cycle
	})
	bench("cellift", func(x *core.ExecContext, sched *swapmem.Schedule) int {
		return x.RunSingle(sched, core.RunOpts{
			Cfg: cfg, Mode: uarch.IFTCellIFT, TaintTrace: true, MaxCycles: 4000,
		}).Core.Cycle
	})
	bench("diffift", func(x *core.ExecContext, sched *swapmem.Schedule) int {
		p := x.RunDiff(sched, core.RunOpts{Cfg: cfg, TaintTrace: true, MaxCycles: 4000}).Pair
		return p.A.Cycle + p.B.Cycle
	})
}
