package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dejavuzz"
	"dejavuzz/internal/core"
)

// Result is one grid cell's outcome.
type Result struct {
	Name string
	// Report is nil when the cell did not finish: it was interrupted,
	// skipped or failed.
	Report *dejavuzz.Report
	// Resumed is the iteration the cell resumed from its checkpoint file
	// (0 when it started fresh).
	Resumed int
}

// Runner runs grid cells over one shared worker pool.
//
// Workers bounds how many cells run at once; each cell's own Opts.Workers
// additionally parallelises its shards. Reports depend on neither, so the
// pool width only changes wall time.
type Runner struct {
	// Workers is the pool width (default 1).
	Workers int
	// Checkpoint, when non-empty, is a directory holding one session
	// checkpoint per cell, named after the cell with "/" replaced by "_"
	// plus ".json". Cells autosave there at their merge barriers, and the
	// next Run resumes each from its file.
	Checkpoint string
	// Progress, when non-nil, receives per-cell progress lines: start or
	// resume, one per merge barrier, and done.
	Progress io.Writer
}

// cell is one spec ready to launch.
type cell struct {
	spec     Spec
	campaign *dejavuzz.Campaign
	path     string               // checkpoint file; empty without a directory
	ck       *dejavuzz.Checkpoint // the file's state; nil starts fresh
}

// Run launches every spec as a session and returns the results in spec
// order. Before any cell runs, it builds every cell's campaign and loads
// every existing cell file; a failure there returns nil results and
// leaves every file as it was. A cell whose file holds different options
// logs the mismatched fields and starts fresh. Cancelling ctx stops the
// running cells at their next merge barrier, where they save their
// checkpoints, and skips the cells not yet started. The context's error,
// a failed autosave and a failed resume are returned alongside the
// results, which keep every cell that finished.
func (r *Runner) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	if r.Checkpoint != "" {
		if err := os.MkdirAll(r.Checkpoint, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		c := &cells[i]
		c.spec = spec
		var extra []dejavuzz.Option
		if r.Checkpoint != "" {
			c.path = filepath.Join(r.Checkpoint, strings.ReplaceAll(spec.Name, "/", "_")+".json")
			extra = append(extra, dejavuzz.WithCheckpointFile(c.path))
		}
		var err error
		if c.campaign, err = spec.Opts.Campaign(extra...); err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", spec.Name, err)
		}
		if c.path == "" {
			continue
		}
		if _, err := os.Stat(c.path); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if c.ck, err = dejavuzz.LoadCheckpoint(c.path); err != nil {
			return nil, err
		}
	}

	progress := NewProgressLog(r.Progress)
	results := make([]Result, len(cells))
	errs := make([]error, len(cells))
	jobs := make([]func(), len(cells))
	for i := range cells {
		jobs[i] = func() { results[i], errs[i] = cells[i].run(ctx, progress) }
	}
	RunJobs(r.Workers, jobs)
	return results, errors.Join(append(errs, ctx.Err())...)
}

// run launches one cell, resuming it from its file when the options
// match, and drains its session into progress lines.
func (c *cell) run(ctx context.Context, progress *ProgressLog) (Result, error) {
	res := Result{Name: c.spec.Name}
	if err := ctx.Err(); err != nil {
		progress.Logf("[%s] skipped: %v", res.Name, err)
		return res, nil
	}
	total, target := c.spec.Opts.EffectiveIterations(), c.spec.Opts.EffectiveTarget()
	var s *dejavuzz.Session
	var err error
	if c.ck != nil {
		s, err = c.campaign.Resume(ctx, c.ck)
		var mismatch *core.OptionMismatchError
		switch {
		case errors.As(err, &mismatch):
			progress.Logf("[%s] %s has mismatched options (%s); starting fresh",
				res.Name, c.path, strings.Join(mismatch.Diffs, "; "))
		case err != nil:
			return res, fmt.Errorf("campaign: cell %s: resume from %s: %w", res.Name, c.path, err)
		default:
			res.Resumed, _ = c.ck.Progress()
			progress.Logf("[%s] resumed at %d/%d iterations on %s", res.Name, res.Resumed, total, target)
		}
	}
	if s == nil {
		progress.Logf("[%s] start: %d iterations on %s", res.Name, total, target)
		if s, err = c.campaign.Start(ctx); err != nil {
			return res, fmt.Errorf("campaign: cell %s: %w", res.Name, err)
		}
	}

	var saveErr error
	for ev := range s.Events() {
		switch ev.Kind {
		case dejavuzz.EventEpoch:
			progress.Logf("[%s] %d/%d iterations, coverage=%d", res.Name, ev.Done, ev.Total, ev.Coverage)
		case dejavuzz.EventCheckpointSaved:
			if ev.Err != nil && saveErr == nil {
				saveErr = fmt.Errorf("campaign: cell %s: %w", res.Name, ev.Err)
			}
		}
	}
	rep, err := s.Wait()
	if err != nil {
		progress.Logf("[%s] interrupted: %v", res.Name, ctx.Err())
		return res, saveErr
	}
	res.Report = rep
	progress.Logf("[%s] done: %d findings, coverage=%d in %v",
		res.Name, len(rep.Findings), rep.Coverage, rep.Duration.Round(time.Millisecond))
	return res, saveErr
}
