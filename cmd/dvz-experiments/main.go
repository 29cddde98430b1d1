// Command dvz-experiments regenerates the paper's evaluation tables and
// figures on the Go reproduction stack.
//
// Usage:
//
//	dvz-experiments table2
//	dvz-experiments table3  [-samples N] [-seed N]
//	dvz-experiments table4  [-budget DUR] [-cycles N]
//	dvz-experiments figure6 [-cycles N] [-csv]
//	dvz-experiments figure7 [-iters N] [-trials N] [-seed N] [-csv]
//	dvz-experiments table5  [-iters N] [-seed N]
//	dvz-experiments liveness [-positives N] [-seed N]
//	dvz-experiments all      (reduced-scale run of everything)
//
// Parallel experiments (table3, table5, figure7) additionally accept
// shared-pool flags:
//
//	-workers N        campaigns/rows to run concurrently (default 1)
//	-checkpoint DIR   checkpoint directory for table5/figure7: each campaign
//	                  autosaves its session checkpoint there, and the next
//	                  run resumes every campaign from its last barrier
//	-progress         stream progress to stderr (also honoured by table4)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dejavuzz/internal/campaign"
	"dejavuzz/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	samples := fs.Int("samples", 10, "phase-1 attempts per Table 3 cell")
	seed := fs.Int64("seed", 1, "experiment RNG seed")
	budget := fs.Duration("budget", 3*time.Second, "CellIFT instrumentation budget (Table 4)")
	cycles := fs.Int("cycles", 8000, "simulation cycle budget")
	iters := fs.Int("iters", 300, "fuzzing iterations")
	trials := fs.Int("trials", 5, "figure 7 trials")
	positives := fs.Int("positives", 75, "SpecDoctor phase-3 positives to collect")
	csv := fs.Bool("csv", false, "emit raw CSV series")
	workers := fs.Int("workers", 1, "campaigns to run concurrently (shared pool width)")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory for campaign resume")
	progress := fs.Bool("progress", false, "stream per-campaign progress to stderr")
	fs.Parse(os.Args[2:])

	// Ctrl-C stops campaign-backed experiments at their next merge barrier,
	// where each saves its checkpoint, so re-running resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := campaign.Runner{Workers: *workers, Checkpoint: *checkpoint}
	if *progress {
		runner.Progress = os.Stderr
	}

	w := os.Stdout
	switch cmd {
	case "table2":
		experiments.Table2(w)
	case "table3":
		experiments.Table3(w, *samples, *seed, runner)
	case "table4":
		experiments.Table4(w, *budget, *cycles, runner.Progress)
	case "figure6":
		series := experiments.Figure6(w, *cycles)
		if *csv {
			experiments.Figure6CSV(w, series)
		}
	case "figure7":
		series, err := experiments.Figure7(ctx, w, *iters, *trials, *seed, runner)
		if *csv && series != nil {
			experiments.Figure7CSV(w, series)
		}
		if err != nil {
			fatal(err)
		}
	case "table5":
		if _, err := experiments.Table5(ctx, w, *iters, *seed, runner); err != nil {
			fatal(err)
		}
	case "liveness":
		experiments.Liveness(w, *positives, *seed)
	case "all":
		experiments.Table2(w)
		fmt.Fprintln(w)
		experiments.Table3(w, 5, *seed, runner)
		fmt.Fprintln(w)
		experiments.Table4(w, *budget, 4000, runner.Progress)
		fmt.Fprintln(w)
		experiments.Figure6(w, 4000)
		fmt.Fprintln(w)
		if _, err := experiments.Figure7(ctx, w, 60, 2, *seed, runner); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
		if _, err := experiments.Table5(ctx, w, 120, *seed, runner); err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
		experiments.Liveness(w, 30, *seed)
	default:
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dvz-experiments {table2|table3|table4|figure6|figure7|table5|liveness|all} [flags]")
	os.Exit(2)
}
