package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dejavuzz"
	"dejavuzz/internal/triage"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness assertion the run made.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// counters are the deterministic per-workload statistics: for a given seed
// and sizes they are identical on every run of the same code, traced or not.
// A change that only claims speed must leave them untouched.
type counters struct {
	Iterations      int    `json:"iterations"`
	Sims            int    `json:"sims"`
	SimCycles       int64  `json:"sim_cycles,omitempty"` // traced runs (replay) only
	CoveragePoints  int    `json:"coverage_points"`
	RawFindings     int    `json:"raw_findings"`
	DistinctBugs    int    `json:"distinct_bugs"`
	CheckpointBytes int64  `json:"checkpoint_bytes"`
	Digest          string `json:"digest"`
}

// meta is the run's environment, recorded with every result.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Smoke      bool           `json:"smoke"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Sizes      map[string]int `json:"sizes"`
	Reps       int            `json:"reps"`
}

// report accumulates everything one run measured.
type report struct {
	Meta meta `json:"meta"`
	// Metrics are the gated metrics: end-to-end ones with tracing off,
	// per-layer ones with tracing on.
	Metrics map[string]metric `json:"metrics"`
	// Info holds end-to-end measurements that exist on only some workloads
	// (or vary with the seed by design); they are printed but not gated.
	Info      map[string]metric `json:"info"`
	Counters  counters          `json:"counters"`
	Checks    []check           `json:"checks"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Notes     []string          `json:"notes,omitempty"`
}

func newReport(e *env) *report {
	return &report{
		Meta: meta{
			Workload:   e.workload,
			Seed:       e.seed,
			Seconds:    e.seconds.Seconds(),
			Trace:      e.trace,
			Smoke:      e.smoke,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Sizes:      map[string]int{},
		},
		Metrics: map[string]metric{},
		Info:    map[string]metric{},
	}
}

func (r *report) set(name string, v float64, unit string)  { r.Metrics[name] = metric{v, unit} }
func (r *report) info(name string, v float64, unit string) { r.Info[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// expect records a correctness check.
func (r *report) expect(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// sameDigest records that two digests of what must be the same campaign
// agree.
func (r *report) sameDigest(name, want, got string) {
	r.expect(name, want == got, "digest %s, want %s", got, want)
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// print writes the human-readable result followed, as the last line, by
// the JSON summary.
func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	m := r.Meta
	fmt.Fprintf(bw, "workload %s seed=%d trace=%t smoke=%t reps=%d nproc=%d gomaxprocs=%d %s\n",
		m.Workload, m.Seed, m.Trace, m.Smoke, m.Reps, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
	fmt.Fprintf(bw, "sizes %s\n", formatSizes(m.Sizes))
	printMetrics(bw, "metric", r.Metrics)
	printMetrics(bw, "info", r.Info)
	c := r.Counters
	fmt.Fprintf(bw, "counters iterations=%d sims=%d sim_cycles=%d coverage=%d raw_findings=%d distinct_bugs=%d checkpoint_bytes=%d digest=%s\n",
		c.Iterations, c.Sims, c.SimCycles, c.CoveragePoints, c.RawFindings, c.DistinctBugs, c.CheckpointBytes, c.Digest)
	for _, ck := range r.Checks {
		status := "ok"
		if !ck.OK {
			status = "FAIL " + ck.Detail
		}
		fmt.Fprintf(bw, "check %s: %s\n", ck.Name, status)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(bw, "note %s\n", n)
	}
	fmt.Fprintf(bw, "ops attempted=%d failed=%d\n", r.Attempted, r.Failed)

	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), attempted, r.Failed, r.Metrics})
	if err != nil {
		// Only NaN or Inf values can fail to encode; report them as a failed run.
		line = []byte(fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, attempted, r.Failed))
	}
	bw.Write(line)
	bw.WriteString("\n")
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-34s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func formatSizes(s map[string]int) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, s[k])
	}
	return strings.Join(parts, " ")
}

// write stores the full result as JSON under dir.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Meta.Workload, r.Meta.Seed, btoi(r.Meta.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// digest hashes a report's byte-identity fields: Findings, Iters, Coverage
// and Scenarios. Duration, FirstBug and the options (which carry the target
// name) are excluded, so a traced run behind a delegating target, a resumed
// run and a report read back from the server all digest like the
// uninterrupted in-process run.
func digest(rep *dejavuzz.Report) string {
	data, err := json.Marshal(struct {
		Findings  []dejavuzz.Finding
		Iters     any
		Coverage  int
		Scenarios []dejavuzz.ScenarioStat
	}{rep.Findings, rep.Iters, rep.Coverage, rep.Scenarios})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// distinctBugs counts the distinct triage signatures among findings.
func distinctBugs(target string, findings []dejavuzz.Finding) int {
	seen := map[triage.Signature]bool{}
	for i := range findings {
		seen[triage.Compute(target, &findings[i])] = true
	}
	return len(seen)
}

// reportCounters derives the deterministic counters of one report.
func reportCounters(target string, rep *dejavuzz.Report) counters {
	return counters{
		Iterations:     len(rep.Iters),
		Sims:           rep.Sims,
		CoveragePoints: rep.Coverage,
		RawFindings:    len(rep.Findings),
		DistinctBugs:   distinctBugs(target, rep.Findings),
		Digest:         digest(rep),
	}
}

// wantDigest is the digest every other run of the same campaign must
// match. For the self-test's forced mismatch it is taken over a copy of rep
// with one coverage point added.
func wantDigest(e *env, rep *dejavuzz.Report) string {
	if e.corruptDigest {
		cp := *rep
		cp.Coverage++
		return digest(&cp)
	}
	return digest(rep)
}

// --- statistics -------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// repSpread is (max − min) ÷ median over a run's repetitions: how far the
// run's own samples disagreed, beside the value it reports.
func repSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / median(xs)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// --- process memory ---------------------------------------------------------

// resetPeakRSS restarts the kernel's peak-resident-set counter, so the
// next peakRSSMB covers only what follows. It reports whether the reset
// took effect (Linux 4.0 and later).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
