package experiments

import (
	"context"
	"io"

	"dejavuzz/internal/campaign"
)

// RunConfig tunes how campaign-backed experiments (Table 5, Figure 7)
// execute: pool width, checkpoint/resume, streaming progress and
// cancellation. It does not affect results — campaigns are deterministic in
// their options.
type RunConfig struct {
	Workers    int
	Checkpoint string
	Progress   io.Writer
	Ctx        context.Context
}

// Option mutates a RunConfig.
type Option func(*RunConfig)

// WithContext makes campaign-backed experiments cancellable: cancellation
// stops in-flight campaigns at their next merge barrier, where each saves
// its checkpoint (re-run to resume).
func WithContext(ctx context.Context) Option {
	return func(c *RunConfig) { c.Ctx = ctx }
}

// context returns the configured context (Background when unset).
func (c RunConfig) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// WithWorkers sets the shared campaign pool width.
func WithWorkers(n int) Option { return func(c *RunConfig) { c.Workers = n } }

// WithCheckpoint enables checkpoint/resume in dir: each campaign keeps its
// session checkpoint there and resumes from its last barrier.
func WithCheckpoint(dir string) Option { return func(c *RunConfig) { c.Checkpoint = dir } }

// WithProgress streams per-campaign progress lines to w.
func WithProgress(w io.Writer) Option { return func(c *RunConfig) { c.Progress = w } }

func runConfig(opts []Option) RunConfig {
	var c RunConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// runGrid expands m and runs its cells as configured by opts.
func runGrid(m campaign.Matrix, opts []Option) ([]campaign.Result, error) {
	specs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	cfg := runConfig(opts)
	runner := campaign.Runner{Workers: cfg.Workers, Checkpoint: cfg.Checkpoint, Progress: cfg.Progress}
	return runner.Run(cfg.context(), specs)
}
