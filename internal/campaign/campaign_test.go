package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dejavuzz"
	"dejavuzz/internal/core"
)

func smallBase(iterations int) dejavuzz.Options {
	return dejavuzz.Options{Target: "boom", Iterations: iterations, MergeEvery: 8}
}

func mustExpand(t *testing.T, m Matrix) []Spec {
	t.Helper()
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func mustRun(t *testing.T, r *Runner, m Matrix) []Result {
	t.Helper()
	res, err := r.Run(context.Background(), mustExpand(t, m))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameReports fails unless two runs of one grid reported the same
// findings, iterations, coverage and scenario statistics, cell by cell.
func sameReports(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("result order differs at %d: %q vs %q", i, g.Name, w.Name)
		}
		if g.Report == nil || w.Report == nil {
			t.Fatalf("%s: missing report", g.Name)
		}
		if !reflect.DeepEqual(g.Report.Findings, w.Report.Findings) {
			t.Errorf("%s: findings differ", g.Name)
		}
		if !reflect.DeepEqual(g.Report.Iters, w.Report.Iters) {
			t.Errorf("%s: iterations differ", g.Name)
		}
		if g.Report.Coverage != w.Report.Coverage {
			t.Errorf("%s: coverage %d vs %d", g.Name, g.Report.Coverage, w.Report.Coverage)
		}
		if !reflect.DeepEqual(g.Report.Scenarios, w.Report.Scenarios) {
			t.Errorf("%s: scenario statistics differ", g.Name)
		}
	}
}

func TestMatrixExpand(t *testing.T) {
	specs := mustExpand(t, Matrix{
		Base:      smallBase(8),
		Cores:     []string{"boom", "xiangshan"},
		Variants:  []string{"derived", "random"},
		Ablations: []string{"base", "no-feedback"},
		Seeds:     []int64{1, 2, 3},
	})
	if len(specs) != 2*2*2*3 {
		t.Fatalf("expected 24 specs, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		// Each axis sets its own field, and the ablation only its cell's.
		if want := strings.Split(s.Name, "/"); s.Opts.Target != want[0] || s.Opts.Variant != want[1] {
			t.Errorf("%s: target %q variant %q", s.Name, s.Opts.Target, s.Opts.Variant)
		}
		if s.Opts.NoCoverageFeedback != strings.Contains(s.Name, "no-feedback") {
			t.Errorf("%s: NoCoverageFeedback=%v", s.Name, s.Opts.NoCoverageFeedback)
		}
		if !s.Opts.SeedSet || !strings.HasSuffix(s.Name, fmt.Sprintf("/s%d", s.Opts.Seed)) {
			t.Errorf("%s: seed %d (set %v)", s.Name, s.Opts.Seed, s.Opts.SeedSet)
		}
	}
	if !names["xiangshan/random/no-feedback/s2"] {
		t.Errorf("missing xiangshan/random/no-feedback/s2; first is %q", specs[0].Name)
	}
}

func TestMatrixExpandDefaults(t *testing.T) {
	specs := mustExpand(t, Matrix{Base: dejavuzz.Options{Iterations: 4}})
	if len(specs) != 1 {
		t.Fatalf("expected 1 spec, got %d", len(specs))
	}
	if specs[0].Name != "boom/derived/base" {
		t.Errorf("unexpected default name %q", specs[0].Name)
	}
	if got := specs[0].Opts; got.EffectiveSeed() != core.DefaultSeed {
		t.Errorf("default cell seed %d, want %d", got.EffectiveSeed(), core.DefaultSeed)
	}
	if _, err := (Matrix{Base: smallBase(4), Ablations: []string{"bogus"}}).Expand(); err == nil {
		t.Error("Expand accepted an unknown ablation")
	}
	_, err := (Matrix{Base: smallBase(4), Variants: []string{"quantum"}}).Expand()
	if err == nil || !strings.Contains(err.Error(), "boom/quantum/base") {
		t.Errorf("Expand of an unknown variant = %v, want a refusal naming the cell", err)
	}
}

// TestMatrixExpandZeroIterations checks that a cell with unset iterations
// runs the target's default count and keeps every other Base field.
func TestMatrixExpandZeroIterations(t *testing.T) {
	base := dejavuzz.Options{Target: "isasim", Seed: 77, SeedSet: true, Shards: 3, MergeEvery: 50,
		NoCoverageFeedback: true}
	res := mustRun(t, &Runner{}, Matrix{Base: base})
	got := res[0].Report.Options
	if got.Iterations != core.DefaultIterations || len(res[0].Report.Iters) != core.DefaultIterations {
		t.Errorf("Iterations=%d (ran %d), want the default %d", got.Iterations, len(res[0].Report.Iters), core.DefaultIterations)
	}
	if got.Seed != 77 || got.Shards != 3 || got.MergeEvery != 50 || got.UseCoverageFeedback {
		t.Errorf("base fields discarded: seed=%d shards=%d merge=%d feedback=%v",
			got.Seed, got.Shards, got.MergeEvery, got.UseCoverageFeedback)
	}
}

func TestAblationByName(t *testing.T) {
	for name, set := range map[string]func(dejavuzz.Options) bool{
		"base":         func(o dejavuzz.Options) bool { return reflect.DeepEqual(o, dejavuzz.Options{}) },
		"no-feedback":  func(o dejavuzz.Options) bool { return o.NoCoverageFeedback },
		"no-liveness":  func(o dejavuzz.Options) bool { return o.NoLiveness },
		"no-reduction": func(o dejavuzz.Options) bool { return o.NoReduction },
		"bugless":      func(o dejavuzz.Options) bool { return o.Bugless },
	} {
		var o dejavuzz.Options
		if err := Ablate(&o, name); err != nil {
			t.Fatal(err)
		}
		if !set(o) {
			t.Errorf("%s ablation gave %+v", name, o)
		}
	}
	if err := Ablate(&dejavuzz.Options{}, "bogus"); err == nil {
		t.Error("expected error for unknown ablation")
	}
}

// TestRunnerPoolWidthInvariance checks the grid analogue of engine
// determinism: the same cells give identical reports whether they run one
// at a time or eight wide.
func TestRunnerPoolWidthInvariance(t *testing.T) {
	m := Matrix{Base: smallBase(16), Seeds: []int64{11, 12, 13, 14}}
	sameReports(t, mustRun(t, &Runner{Workers: 8}, m), mustRun(t, &Runner{Workers: 1}, m))
}

func TestCheckpointResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "grid")
	m := Matrix{Base: smallBase(12), Seeds: []int64{5, 6}}

	first := mustRun(t, &Runner{Workers: 2, Checkpoint: dir}, m)
	for _, res := range first {
		if res.Resumed != 0 {
			t.Errorf("%s: fresh run resumed at %d", res.Name, res.Resumed)
		}
		if _, err := dejavuzz.LoadCheckpoint(filepath.Join(dir, strings.ReplaceAll(res.Name, "/", "_")+".json")); err != nil {
			t.Fatalf("%s: no session checkpoint: %v", res.Name, err)
		}
	}

	// A re-run resumes every cell at its final barrier.
	second := mustRun(t, &Runner{Workers: 2, Checkpoint: dir}, m)
	for _, res := range second {
		if res.Resumed != 12 {
			t.Errorf("%s: resumed at %d, want 12", res.Name, res.Resumed)
		}
	}
	sameReports(t, second, first)

	// A widened grid only runs the new cell.
	wider := Matrix{Base: smallBase(12), Seeds: []int64{5, 6, 7}}
	resumed := 0
	for _, res := range mustRun(t, &Runner{Workers: 2, Checkpoint: dir}, wider) {
		if res.Resumed > 0 {
			resumed++
		}
	}
	if resumed != 2 {
		t.Errorf("expected 2 resumed cells after widening, got %d", resumed)
	}
}

// TestCheckpointOptionMismatch checks that a cell file holding other
// options (a stale file, a name collision) starts the cell fresh instead
// of resuming it, and that a Workers difference alone still resumes.
func TestCheckpointOptionMismatch(t *testing.T) {
	dir := t.TempDir()
	m := Matrix{Base: smallBase(8)}
	mustRun(t, &Runner{Checkpoint: dir}, m)

	wide := m
	wide.Base.Workers = 8
	if res := mustRun(t, &Runner{Checkpoint: dir}, wide); res[0].Resumed != 8 {
		t.Fatal("a workers-only difference did not resume")
	}

	// Same cell name, different seed: must not resume.
	changed := m
	changed.Base.Seed = 999
	res := mustRun(t, &Runner{Checkpoint: dir}, changed)
	if res[0].Resumed != 0 {
		t.Fatal("a checkpoint with another seed was resumed")
	}
	if res[0].Report.Options.Seed != 999 {
		t.Fatalf("re-run used seed %d, want 999", res[0].Report.Options.Seed)
	}

	// A different scenario set starts fresh too, and the log names the
	// mismatched option.
	scoped := changed
	scoped.Base.Scenarios = []string{"page-fault"}
	var log bytes.Buffer
	res = mustRun(t, &Runner{Checkpoint: dir, Progress: &log}, scoped)
	if res[0].Resumed != 0 {
		t.Fatal("a scenario-set mismatch resumed a stale checkpoint")
	}
	if got := log.String(); !strings.Contains(got, "mismatched options") || !strings.Contains(got, "scenarios") {
		t.Fatalf("mismatch log does not name the scenarios option:\n%s", got)
	}
	// The scoped run saved its own checkpoint, which a re-run resumes.
	if res = mustRun(t, &Runner{Checkpoint: dir}, scoped); res[0].Resumed != 8 {
		t.Fatal("the scoped cell was not checkpointed")
	}
}

// TestCheckpointRejectsGarbage: a cell file that does not parse stops the
// run before any cell runs, naming the file, and is left untouched.
func TestCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "boom_derived_base.json")
	garbage := []byte("{not json")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{Checkpoint: dir}).Run(context.Background(), mustExpand(t, Matrix{Base: smallBase(4)}))
	if err == nil || res != nil {
		t.Fatalf("Run over a malformed cell file = %v, %v; want nil results and an error", res, err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("refusal does not name the file: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, garbage) {
		t.Errorf("malformed cell file was rewritten: %q", got)
	}
}

func TestProgressStreaming(t *testing.T) {
	var buf bytes.Buffer
	m := Matrix{Base: smallBase(16), Seeds: []int64{21, 22}}
	mustRun(t, &Runner{Workers: 2, Progress: &buf}, m)
	out := buf.String()
	for _, want := range []string{"start:", "iterations, coverage=", "done:"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress stream missing %q:\n%s", want, out)
		}
	}
	// One line per merge barrier: 16 iterations / MergeEvery 8 = 2 per cell.
	if n := strings.Count(out, "iterations, coverage="); n != 4 {
		t.Errorf("expected 4 barrier lines, got %d:\n%s", n, out)
	}
	if n := strings.Count(out, "16/16 iterations"); n != 2 {
		t.Errorf("expected 2 final-barrier lines, got %d:\n%s", n, out)
	}
}

// cancelOnLine is a progress writer that cancels a context at the first
// line containing marker.
type cancelOnLine struct {
	mu     sync.Mutex
	marker string
	cancel context.CancelFunc
}

func (w *cancelOnLine) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if strings.Contains(string(p), w.marker) {
		w.cancel()
	}
	return len(p), nil
}

// TestGridResumeAfterInterrupt cancels a three-cell grid after its first
// cell's first barrier and re-runs it over the same checkpoint directory:
// the interrupted cell resumes from its last autosave, not from iteration
// 0, and every report equals an uninterrupted grid's.
func TestGridResumeAfterInterrupt(t *testing.T) {
	m := Matrix{Base: dejavuzz.Options{Target: "boom", Iterations: 128, MergeEvery: 4}, Seeds: []int64{1, 2, 3}}
	want := mustRun(t, &Runner{}, m)

	dir := t.TempDir()
	specs := mustExpand(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := &cancelOnLine{marker: "[" + specs[0].Name + "] 4/128 iterations", cancel: cancel}
	res, err := (&Runner{Checkpoint: dir, Progress: stop}).Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted grid returned %v, want context.Canceled", err)
	}
	for _, r := range res {
		if r.Report != nil {
			t.Fatalf("%s finished before the cancellation landed", r.Name)
		}
	}

	got, err := (&Runner{Checkpoint: dir}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Resumed <= 0 || got[0].Resumed >= 128 {
		t.Errorf("%s resumed at %d, want a mid-campaign barrier", got[0].Name, got[0].Resumed)
	}
	for _, r := range got[1:] {
		if r.Resumed != 0 {
			t.Errorf("%s: a cell skipped by the cancellation resumed at %d", r.Name, r.Resumed)
		}
	}
	sameReports(t, got, want)
}
