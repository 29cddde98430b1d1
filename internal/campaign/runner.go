package campaign

import (
	"context"
	"io"
	"strings"
	"sync"

	"dejavuzz/internal/core"
)

// Result is one finished (or checkpoint-restored) campaign cell.
type Result struct {
	Name   string       `json:"name"`
	Report *core.Report `json:"report"`
	// Cached marks results restored from the checkpoint instead of re-run.
	Cached bool `json:"-"`
}

// Runner executes campaign specs over one shared worker pool.
//
// Workers bounds how many campaigns run concurrently; each campaign's own
// Opts.Workers additionally parallelises its shards, so total parallelism is
// the product. Campaign results are deterministic per spec (the engine
// guarantees worker-independence), so the pool width only affects wall time.
type Runner struct {
	// Workers is the pool width (default 1).
	Workers int
	// Checkpoint, when non-empty, is a JSON file campaigns are saved to as
	// they finish; on the next Run, specs whose names it contains are
	// restored instead of re-run.
	Checkpoint string
	// Progress, when non-nil, receives streaming per-campaign progress lines
	// (one per merge barrier, plus start/done markers).
	Progress io.Writer
}

// Run executes every spec not already in the checkpoint and returns results
// in spec order. An error loading the checkpoint aborts the run (nil
// results); an error saving it is returned alongside the fully-populated
// results, since the campaigns themselves completed (the engine has no
// error path).
func (r *Runner) Run(specs []Spec) ([]Result, error) {
	return r.RunContext(context.Background(), specs)
}

// RunContext is Run with cancellation: a cancelled context stops every
// in-flight campaign at its next merge barrier and skips campaigns not yet
// started. Interrupted campaigns report nil in the result slice and the
// context's error is returned; campaigns already finished (or restored)
// keep their results, and finished-and-saved checkpoint entries survive, so
// re-running the same specs resumes where the cancellation landed.
func (r *Runner) RunContext(ctx context.Context, specs []Spec) ([]Result, error) {
	ckpt, err := loadCheckpoint(r.Checkpoint)
	if err != nil {
		return nil, err
	}
	progress := NewProgressLog(r.Progress)

	var mu sync.Mutex // guards ckpt map mutation and firstErr from jobs
	var saveMu sync.Mutex
	var firstErr error
	results := make([]Result, len(specs))
	var jobs []func()
	for i, spec := range specs {
		rep, ok := ckpt.Results[spec.Name]
		if ok {
			// Same key, different determinism-relevant options: the stale
			// entry must not masquerade as this spec's result. The diff
			// names what changed (e.g. a different -scenarios set), so the
			// invalidation is auditable instead of a bare mismatch.
			if diffs := spec.Opts.DiffFrom(rep.Options); len(diffs) > 0 {
				progress.Logf("[%s] checkpoint entry has mismatched options (%s); re-running",
					spec.Name, strings.Join(diffs, "; "))
				ok = false
			}
		}
		if ok {
			results[i] = Result{Name: spec.Name, Report: rep, Cached: true}
			progress.Logf("[%s] restored from checkpoint (%d findings, coverage=%d)",
				spec.Name, len(rep.Findings), rep.Coverage)
			continue
		}
		jobs = append(jobs, func() {
			if ctx.Err() != nil {
				progress.Logf("[%s] skipped: %v", spec.Name, ctx.Err())
				return
			}
			progress.Logf("[%s] start: %d iterations on %s", spec.Name, spec.Opts.Iterations, spec.Opts.Normalized().Target)
			opts := spec.Opts
			prev := opts.OnBarrier
			opts.OnBarrier = func(b *core.Barrier) {
				if prev != nil {
					prev(b)
				}
				progress.Logf("[%s] %d/%d iterations, coverage=%d", spec.Name, b.Done, b.Total, b.Coverage)
			}
			rep, _ := core.NewFuzzer(opts).RunContext(ctx)
			if rep == nil {
				progress.Logf("[%s] interrupted: %v", spec.Name, ctx.Err())
				return
			}
			results[i] = Result{Name: spec.Name, Report: rep}
			progress.Logf("[%s] done: %d findings, coverage=%d in %v",
				spec.Name, len(rep.Findings), rep.Coverage, rep.Duration.Round(1e6))

			// Record the result under mu, but marshal and write the file
			// under saveMu so progress lines from running campaigns never
			// block behind checkpoint I/O. Each writer re-snapshots under
			// mu, so the last rename always carries every completed
			// campaign.
			mu.Lock()
			ckpt.Results[spec.Name] = rep
			mu.Unlock()
			if r.Checkpoint != "" {
				saveMu.Lock()
				mu.Lock()
				snap := &checkpoint{Version: ckpt.Version, Results: make(map[string]*core.Report, len(ckpt.Results))}
				for k, v := range ckpt.Results {
					snap.Results[k] = v
				}
				mu.Unlock()
				err := saveCheckpoint(r.Checkpoint, snap)
				saveMu.Unlock()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		})
	}
	RunJobs(r.Workers, jobs)
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
}

// RunMatrix expands and runs a matrix in one call.
func (r *Runner) RunMatrix(m Matrix) ([]Result, error) {
	return r.Run(m.Expand())
}

// RunMatrixContext expands and runs a matrix with cancellation.
func (r *Runner) RunMatrixContext(ctx context.Context, m Matrix) ([]Result, error) {
	return r.RunContext(ctx, m.Expand())
}
