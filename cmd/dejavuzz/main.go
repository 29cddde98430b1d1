// Command dejavuzz runs a DejaVuzz fuzzing campaign against a registered
// target and reports discovered transient-execution leaks.
//
// Usage:
//
//	dejavuzz [-target boom|xiangshan|isasim] [-n iterations] [-seed N]
//	         [-workers N] [-shards N] [-variant derived|random]
//	         [-scenarios fam1,fam2,...]
//	         [-no-feedback] [-no-liveness] [-no-reduction] [-bugless]
//	         [-checkpoint state.json] [-progress] [-v]
//
// Campaigns are deterministic: the same -seed/-n/-shards produce identical
// findings and coverage for any -workers value. Single campaigns run as a
// streaming session: -progress streams per-barrier events, -checkpoint
// autosaves a resumable checkpoint at every merge barrier, and Ctrl-C stops
// at the next barrier — re-running the same command resumes from the saved
// checkpoint. -list-targets prints the target registry; -list-scenarios
// prints the scenario-family catalog; -scenarios restricts a campaign to
// the named families (a determinism-relevant option: resuming a checkpoint
// under a different set fails with an option-mismatch error).
//
// Matrix mode runs a grid of campaigns (cores × variants × ablations ×
// seeds) over a shared worker pool with optional whole-campaign
// checkpoint/resume:
//
//	dejavuzz -matrix "cores=boom,xiangshan;variants=derived,random;ablations=base,no-feedback;seeds=1,2,3" \
//	         [-n iterations] [-workers N] [-checkpoint state.json] [-progress]
//
// The single-campaign flags remain meaningful in matrix mode: -seed,
// -target, -variant, -shards, -scenarios and the -no-*/-bugless ablation
// flags supply the base options, which matrix dimensions override per axis
// when present.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"dejavuzz"
	"dejavuzz/internal/campaign"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

func main() { os.Exit(realMain()) }

// realMain carries the whole CLI; it returns the process exit code instead
// of calling os.Exit so deferred teardown — notably the -cpuprofile /
// -memprofile writers — runs on every path, including the interrupt/
// checkpoint flow and error exits.
func realMain() int {
	target := flag.String("target", "", "design under test (see -list-targets; default boom)")
	n := flag.Int("n", 200, "fuzzing iterations")
	seed := flag.Int64("seed", 1, "campaign RNG seed")
	workers := flag.Int("workers", 1, "parallel simulation workers (wall-time only; never changes results)")
	shards := flag.Int("shards", 0, "deterministic logical shards (0 = default 8; changes stimulus streams)")
	variant := flag.String("variant", "derived", "training strategy: derived (DejaVuzz) or random (DejaVuzz*)")
	scenarios := flag.String("scenarios", "", "comma-separated scenario families to fuzz (see -list-scenarios; default all)")
	noFeedback := flag.Bool("no-feedback", false, "disable taint-coverage feedback (DejaVuzz-)")
	noLiveness := flag.Bool("no-liveness", false, "disable tainted-sink liveness analysis")
	noReduction := flag.Bool("no-reduction", false, "disable training reduction")
	bugless := flag.Bool("bugless", false, "disable the injected bugs (regression baseline)")
	verbose := flag.Bool("v", false, "print per-iteration statistics")
	repro := flag.String("repro", "", "replay a serialised finding seed (JSON) instead of fuzzing")
	matrix := flag.String("matrix", "", "campaign grid spec: cores=..;variants=..;ablations=..;seeds=..")
	checkpoint := flag.String("checkpoint", "", "resumable checkpoint file (per-barrier in single mode, per-campaign in matrix mode)")
	progress := flag.Bool("progress", false, "stream per-barrier progress to stderr")
	listTargets := flag.Bool("list-targets", false, "list registered targets and exit")
	listScenarios := flag.Bool("list-scenarios", false, "print the scenario catalog (markdown table) and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	// Profiling hooks so perf work on the engine never needs code edits:
	// -cpuprofile covers the whole run; -memprofile snapshots the heap after
	// the campaign completes (post-GC, so live retention is what shows).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *listTargets {
		for _, name := range dejavuzz.Targets() {
			t, _ := dejavuzz.LookupTarget(name)
			fmt.Printf("%-12s %s\n", name, t.Description())
		}
		return 0
	}
	if *listScenarios {
		// Exactly the README's scenario-catalog table; CI diffs the two.
		fmt.Print(dejavuzz.ScenarioCatalogTable())
		return 0
	}

	targetName := *target
	if targetName == "" {
		targetName = dejavuzz.DefaultTarget
	}
	tgt, err := dejavuzz.LookupTarget(targetName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	trainVariant, err := parseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	scenarioSet, err := parseScenarios(*scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Ctrl-C cancels the session/matrix at the next merge barrier, where a
	// resumable checkpoint is saved.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *matrix != "" {
		base := core.DefaultOptionsFor(tgt)
		base.Seed = *seed
		base.Iterations = *n
		base.Variant = trainVariant
		if *shards > 0 {
			base.Shards = *shards
		}
		base.UseCoverageFeedback = !*noFeedback
		base.UseLiveness = !*noLiveness
		base.UseReduction = !*noReduction
		base.Bugless = *bugless
		base.Scenarios = scenarioSet
		return runMatrix(ctx, *matrix, base, *workers, *checkpoint, *progress)
	}

	if *repro != "" {
		return runRepro(targetName, *target != "", *repro, *bugless)
	}

	opts := []dejavuzz.Option{
		dejavuzz.WithSeed(*seed),
		dejavuzz.WithIterations(*n),
		dejavuzz.WithWorkers(*workers),
		dejavuzz.WithVariant(trainVariant),
		dejavuzz.WithCoverageFeedback(!*noFeedback),
		dejavuzz.WithLiveness(!*noLiveness),
		dejavuzz.WithReduction(!*noReduction),
		dejavuzz.WithInjectedBugs(!*bugless),
	}
	if *shards > 0 {
		opts = append(opts, dejavuzz.WithShards(*shards))
	}
	if len(scenarioSet) > 0 {
		opts = append(opts, dejavuzz.WithScenarios(scenarioSet...))
	}
	if *checkpoint != "" {
		opts = append(opts, dejavuzz.WithCheckpointFile(*checkpoint))
	}

	c, err := dejavuzz.New(targetName, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	ck, err := loadResume(*checkpoint)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var session *dejavuzz.Session
	if ck != nil {
		done, total := ck.Progress()
		fmt.Fprintf(os.Stderr, "resuming %s from %s (%d/%d iterations)\n",
			ck.Target(), *checkpoint, done, total)
		session, err = c.Resume(ctx, ck)
	} else {
		session, err = c.Start(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	rep := drainSession(session, *progress)
	if rep == nil {
		// Interrupted at a barrier; the checkpoint (if -checkpoint was
		// given) is already saved.
		ck := session.Checkpoint()
		done, total := ck.Progress()
		where := "progress was not saved (use -checkpoint FILE to make runs resumable)"
		if *checkpoint != "" {
			where = fmt.Sprintf("re-run the same command to resume from %s", *checkpoint)
		}
		fmt.Fprintf(os.Stderr, "interrupted at %d/%d iterations; %s\n", done, total, where)
		return 130
	}

	if *verbose {
		for _, it := range rep.Iters {
			fmt.Printf("iter=%-4d trigger=%-28v triggered=%-5v gain=%-5v newpts=%-3d cov=%-4d finding=%v\n",
				it.Iteration, it.Trigger, it.Triggered, it.TaintGain, it.NewPoints, it.Coverage, it.Finding)
		}
	}
	fmt.Printf("target=%s iterations=%d sims=%d duration=%v\n",
		targetName, len(rep.Iters), rep.Sims, rep.Duration.Round(1e6))
	fmt.Printf("taint coverage points: %d\n", rep.Coverage)
	fmt.Printf("findings: %d (liveness-suppressed false positives: %d)\n",
		len(rep.Findings), rep.DeadSinks)
	for i, fi := range rep.Findings {
		// Seeds encode only the core personality, not the target; point
		// non-uarch replays at the right pipeline explicitly.
		hint := ""
		if targetName != core.BuiltinTargetName(fi.Seed.Core) {
			hint = fmt.Sprintf(" (replay with -target %s)", targetName)
		}
		fmt.Printf("  [%d] %v\n      repro-seed: %s%s\n", i+1, &fi, core.EncodeSeed(fi.Seed), hint)
	}
	if len(rep.Findings) > 0 {
		fmt.Printf("first finding at iteration %d\n", rep.Findings[0].Iteration)
	}
	return 0
}

// drainSession consumes the event stream (printing progress when asked) and
// returns the final report, or nil when the session was interrupted.
func drainSession(s *dejavuzz.Session, progress bool) *dejavuzz.Report {
	for ev := range s.Events() {
		switch ev.Kind {
		case dejavuzz.EventEpoch:
			if progress {
				fmt.Fprintf(os.Stderr, "%d/%d iterations, coverage=%d\n", ev.Done, ev.Total, ev.Coverage)
			}
		case dejavuzz.EventFinding:
			if progress {
				fmt.Fprintf(os.Stderr, "finding at iteration %d: %v\n", ev.Finding.Iteration, ev.Finding)
			}
		case dejavuzz.EventCheckpointSaved:
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint save failed: %v\n", ev.Err)
			} else if progress {
				fmt.Fprintf(os.Stderr, "checkpoint saved to %s (%d/%d)\n", ev.Path, ev.Done, ev.Total)
			}
		}
	}
	rep, err := s.Wait()
	if errors.Is(err, dejavuzz.ErrInterrupted) {
		return nil
	}
	return rep
}

// loadResume loads a session checkpoint if the file exists; a missing file
// (or empty path) starts fresh and any other failure is fatal.
func loadResume(path string) (*dejavuzz.Checkpoint, error) {
	if path == "" {
		return nil, nil
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, nil
	}
	return dejavuzz.LoadCheckpoint(path)
}

// runRepro replays a serialised finding seed. Without an explicit -target
// the seed's core kind selects the matching uarch pipeline (the historical
// behaviour); with one, the replay runs on that target — which matters for
// findings from non-uarch targets like isasim, whose seeds also carry a
// core kind but must not be replayed on the uarch pipeline.
func runRepro(targetName string, explicit bool, reproJSON string, bugless bool) int {
	seed, err := core.DecodeSeed(reproJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !explicit {
		targetName = core.BuiltinTargetName(seed.Core)
	}
	tgt, err := core.LookupTarget(targetName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	opts := core.DefaultOptionsFor(tgt)
	opts.Bugless = bugless
	f := core.NewFuzzer(opts)

	if targetName == core.BuiltinTargetName(tgt.Kind()) {
		// uarch pipeline: the full three-phase replay with training stats.
		rr, err := f.Reproduce(seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("reproduce: triggered=%v taint-gain=%v TO=%d ETO=%d sims=%d\n",
			rr.Triggered, rr.TaintGain, rr.TO, rr.ETO, rr.Sims)
		if rr.Finding != nil {
			fmt.Printf("finding: %v\n", rr.Finding)
		} else {
			fmt.Println("finding: none")
		}
		return 0
	}
	// Any other target: replay one iteration through its pipeline.
	out := tgt.NewPipeline(f).NewShard().RunIteration(0, seed, core.NewCoverage())
	fmt.Printf("reproduce[%s]: triggered=%v taint-gain=%v new-points=%d sims=%d\n",
		targetName, out.Triggered, out.TaintGain, out.NewPoints, out.Sims)
	if out.Finding != nil {
		fmt.Printf("finding: %v\n", out.Finding)
	} else {
		fmt.Println("finding: none")
	}
	return 0
}

// parseScenarios splits and validates the -scenarios list against the
// registry, so a typo fails up front with the registered names.
func parseScenarios(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		out = append(out, name)
	}
	if err := core.ValidateScenarios(out); err != nil {
		return nil, err
	}
	return out, nil
}

func parseVariant(name string) (gen.Variant, error) {
	switch strings.ToLower(name) {
	case "derived":
		return gen.VariantDerived, nil
	case "random":
		return gen.VariantRandom, nil
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// parseMatrix turns "cores=boom,xiangshan;variants=derived;ablations=base,
// no-feedback;seeds=1,2" into a campaign matrix over the flag-derived base
// options. Omitted dimensions collapse to the base's value (one cell).
func parseMatrix(spec string, base core.Options) (campaign.Matrix, error) {
	m := campaign.Matrix{Base: base}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, vals, ok := strings.Cut(field, "=")
		if !ok {
			return m, fmt.Errorf("matrix: bad field %q (want key=v1,v2,...)", field)
		}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				continue
			}
			switch strings.TrimSpace(key) {
			case "cores":
				// The cores axis names the built-in uarch targets only.
				tgt, err := dejavuzz.LookupTarget(v)
				if err != nil || core.BuiltinTargetName(tgt.Kind()) != v {
					return m, fmt.Errorf("matrix: unknown core %q (want boom or xiangshan)", v)
				}
				m.Cores = append(m.Cores, tgt.Kind())
			case "variants":
				tv, err := parseVariant(v)
				if err != nil {
					return m, fmt.Errorf("matrix: %w", err)
				}
				m.Variants = append(m.Variants, tv)
			case "ablations":
				ab, err := campaign.AblationByName(v)
				if err != nil {
					return m, fmt.Errorf("matrix: %w", err)
				}
				m.Ablations = append(m.Ablations, ab)
			case "seeds":
				s, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return m, fmt.Errorf("matrix: bad seed %q", v)
				}
				m.Seeds = append(m.Seeds, s)
			default:
				return m, fmt.Errorf("matrix: unknown dimension %q", key)
			}
		}
	}
	return m, nil
}

func runMatrix(ctx context.Context, spec string, base core.Options, workers int, checkpoint string, progress bool) int {
	m, err := parseMatrix(spec, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	runner := campaign.Runner{Workers: workers, Checkpoint: checkpoint}
	if progress {
		runner.Progress = os.Stderr
	}
	results, err := runner.RunMatrixContext(ctx, m)
	if results == nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%-40s %-10s %-10s %-10s %-10s\n", "campaign", "findings", "coverage", "sims", "cached")
	for _, res := range results {
		if res.Report == nil {
			continue // interrupted before this campaign finished
		}
		rep := res.Report
		fmt.Printf("%-40s %-10d %-10d %-10d %-10v\n",
			res.Name, len(rep.Findings), rep.Coverage, rep.Sims, res.Cached)
	}
	if err != nil {
		// Interrupted, or checkpoint-save failure: completed campaigns above
		// are still valid (and saved, when -checkpoint was given).
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
