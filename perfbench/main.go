// Command perfbench is the dejavuzz benchmark of record. It runs one named
// workload from a seed, measures it for a fixed wall-clock window, checks
// that the program's outputs are correct, and prints every metric with its
// unit. The last line of standard output is the JSON summary
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload boom-fuzz --seed 42 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 drives the same workload through a delegating target and a
// barrier hook, replays the recorded iterations through the modules' public
// calls, reports the per-layer metrics and writes the span file. README.md
// documents the workloads, every metric and the layer map.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// run measures the end-to-end metrics with tracing off.
	run func(e *env) error
	// trace runs the traced form and reports the per-layer metrics.
	trace func(e *env) error
}

var workloads = []workload{
	{name: "boom-fuzz", run: func(e *env) error { return runCampaign(e, boomFuzz) }, trace: func(e *env) error { return traceCampaign(e, boomFuzz) }},
	{name: "isasim-resume", run: func(e *env) error { return runCampaign(e, isasimResume) }, trace: func(e *env) error { return traceCampaign(e, isasimResume) }},
	{name: "xiangshan-parallel", run: func(e *env) error { return runCampaign(e, xiangshanParallel) }, trace: func(e *env) error { return traceCampaign(e, xiangshanParallel) }},
	{name: "service-mix", run: runMix, trace: traceMix},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// env is one benchmark run: its arguments, its scratch directory and the
// report it fills in.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every workload to a few barriers (the self-test size).
	smoke bool
	// corruptDigest perturbs the reference digest, so the self-test can
	// prove a mismatch fails the run.
	corruptDigest bool
	// outDir receives the result and span files.
	outDir     string
	scratchDir string
	rep        *report
}

// scratch returns a fresh directory under the run's scratch area.
func (e *env) scratch(name string) (string, error) {
	dir := filepath.Join(e.scratchDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	name := flag.String("workload", "", "workload to run: boom-fuzz, isasim-resume, xiangshan-parallel or service-mix")
	seed := flag.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced form and reports per-layer metrics")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	e := &env{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		outDir:   filepath.Join(".bench_build", "results"),
	}
	os.Exit(execute(e, w, os.Stdout))
}

// execute runs one workload and prints its result to out; it returns the
// exit code.
func execute(e *env, w workload, out io.Writer) int {
	e.rep = newReport(e)
	e.scratchDir = filepath.Join(e.outDir, fmt.Sprintf("scratch-%s-%d", e.workload, os.Getpid()))
	if err := os.MkdirAll(e.scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.scratchDir)

	run := w.run
	if e.trace {
		run = w.trace
	}
	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	if err := e.rep.write(e.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.rep.print(out)
	if !e.rep.correct() {
		return 1
	}
	return 0
}
