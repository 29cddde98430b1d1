package experiments

import (
	"fmt"
	"io"

	"dejavuzz"
	"dejavuzz/internal/campaign"
	"dejavuzz/internal/core"
	"dejavuzz/internal/specdoctor"
	"dejavuzz/internal/uarch"
)

// Figure7Series is one fuzzer's coverage trajectory, averaged over trials.
type Figure7Series struct {
	Name   string
	Trials [][]int // per trial: cumulative coverage per iteration
}

// Mean returns the across-trial mean at each iteration.
func (s Figure7Series) Mean() []float64 {
	if len(s.Trials) == 0 {
		return nil
	}
	n := len(s.Trials[0])
	out := make([]float64, n)
	for _, tr := range s.Trials {
		for i := 0; i < n && i < len(tr); i++ {
			out[i] += float64(tr[i])
		}
	}
	for i := range out {
		out[i] /= float64(len(s.Trials))
	}
	return out
}

// Final returns the mean final coverage.
func (s Figure7Series) Final() float64 {
	m := s.Mean()
	if len(m) == 0 {
		return 0
	}
	return m[len(m)-1]
}

// Figure7 compares taint-coverage growth for DejaVuzz, DejaVuzz− (no
// coverage feedback) and SpecDoctor (phase-3 test cases replayed through the
// diffIFT environment, as the paper does) over `iterations` per trial. The
// DejaVuzz campaigns run as one campaign grid (ablations × trial seeds)
// over the shared worker pool configured by opts. The error is non-nil only
// for checkpoint I/O failures and cancellation.
func Figure7(w io.Writer, iterations, trials int, seed int64, opts ...Option) ([]Figure7Series, error) {
	kind := uarch.KindBOOM
	series := []Figure7Series{{Name: "DejaVuzz"}, {Name: "DejaVuzz-"}, {Name: "SpecDoctor"}}
	var runErr error

	seeds := make([]int64, trials)
	for trial := range seeds {
		seeds[trial] = seed + int64(trial)*7919
	}
	if trials > 0 {
		results, rerr := runGrid(campaign.Matrix{
			Prefix:    fmt.Sprintf("figure7/i%d", iterations),
			Base:      dejavuzz.Options{Target: "boom", Iterations: iterations},
			Ablations: []string{"base", "no-feedback"},
			Seeds:     seeds,
		}, opts)
		if results == nil {
			return nil, rerr
		}
		runErr = rerr // checkpoint-save failure or cancellation: keep what completed
		// Expansion order: all baseline trials, then all no-feedback trials.
		for i, res := range results {
			if res.Report == nil {
				continue // interrupted before this cell finished
			}
			si := i / trials // 0 = DejaVuzz, 1 = DejaVuzz−
			series[si].Trials = append(series[si].Trials, res.Report.CoverageHistory())
		}
	}

	for _, tseed := range seeds {
		// SpecDoctor: replay generated cases and measure OUR taint coverage.
		sd := specdoctor.New(specdoctor.Options{Core: kind, Seed: tseed})
		cov := core.NewCoverage()
		hist := make([]int, iterations)
		sup := sd.SupportedTriggers()
		for i := 0; i < iterations; i++ {
			t := sup[i%len(sup)]
			c, err := sd.GenCase(t)
			if err == nil {
				run := core.RunDiff(c.Schedule(), core.RunOpts{
					Cfg: uarch.ConfigFor(kind), TaintTrace: true,
				})
				cov.AddFromLog(run.Pair.A.Trace.TaintLog)
			}
			hist[i] = cov.Count()
		}
		series[2].Trials = append(series[2].Trials, hist)
	}

	fmt.Fprintln(w, "Figure 7: taint coverage over iterations (mean of trials)")
	fmt.Fprintf(w, "%-12s %-12s %-12s %-14s\n", "Fuzzer", "Final", "Mid", "Improvement")
	sdFinal := series[2].Final()
	for _, s := range series {
		m := s.Mean()
		mid := 0.0
		if len(m) > 0 {
			mid = m[len(m)/2]
		}
		impr := "-"
		if sdFinal > 0 {
			impr = fmt.Sprintf("%.1fx vs SpecDoctor", s.Final()/sdFinal)
		}
		fmt.Fprintf(w, "%-12s %-12.1f %-12.1f %-14s\n", s.Name, s.Final(), mid, impr)
	}

	// Saturation crossover: first DejaVuzz iteration reaching SpecDoctor's
	// final coverage.
	dv := series[0].Mean()
	cross := -1
	for i, v := range dv {
		if v >= sdFinal {
			cross = i + 1
			break
		}
	}
	fmt.Fprintf(w, "DejaVuzz reaches SpecDoctor's final coverage at iteration %d of %d\n", cross, iterations)
	return series, runErr
}

// Figure7CSV writes the raw mean series for plotting.
func Figure7CSV(w io.Writer, series []Figure7Series) {
	fmt.Fprintln(w, "fuzzer,iteration,coverage_mean")
	for _, s := range series {
		for i, v := range s.Mean() {
			fmt.Fprintf(w, "%s,%d,%.2f\n", s.Name, i+1, v)
		}
	}
}
