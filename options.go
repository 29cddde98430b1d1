package dejavuzz

import "dejavuzz/internal/core"

// settings is the campaign configuration functional options mutate: the
// engine options plus session-level behaviour (checkpoint autosave).
type settings struct {
	opts     core.Options
	ckptPath string
}

// Option configures a campaign built by New. Options are explicit, so a
// zero value is never mistaken for "unset": WithSeed(0) means seed zero and
// WithIterations(0) means an empty dry run.
type Option func(*settings)

// WithSeed sets the campaign RNG seed (default 1). Zero is a valid seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.opts.Seed = seed }
}

// WithIterations sets the campaign length (default 100). Zero runs an empty
// campaign — useful as a configuration dry run.
func WithIterations(n int) Option {
	return func(s *settings) { s.opts.Iterations = n }
}

// WithWorkers sets the number of parallel simulation workers (default 1).
// Workers only change wall-clock time: results are identical for any value.
func WithWorkers(n int) Option {
	return func(s *settings) { s.opts.Workers = n }
}

// WithShards sets the number of deterministic logical shards (default 8).
// Unlike Workers, changing Shards changes the campaign's stimulus streams
// and therefore its results.
func WithShards(n int) Option {
	return func(s *settings) { s.opts.Shards = n }
}

// WithMergeEvery sets the merge-barrier interval in iterations (default
// 64). Barriers are where shards merge, events stream, cancellation lands
// and checkpoints are taken; a smaller interval gives finer-grained events
// and cancellation at the cost of more synchronisation.
func WithMergeEvery(n int) Option {
	return func(s *settings) { s.opts.MergeEvery = n }
}

// WithScenarios restricts the campaign to the named scenario families (see
// Scenarios for the catalog). Names are validated by New; an empty call
// keeps the default of every family. Like WithShards — and
// unlike WithWorkers — the scenario set is determinism-relevant: it
// reshapes the stimulus streams, is recorded in checkpoints, and resuming a
// checkpoint under a different set fails with an option-mismatch error.
func WithScenarios(names ...string) Option {
	return func(s *settings) { s.opts.Scenarios = append([]string(nil), names...) }
}

// WithVariant selects the training strategy: Derived (DejaVuzz) or
// RandomTraining (the DejaVuzz* ablation).
func WithVariant(v Variant) Option {
	return func(s *settings) { s.opts.Variant = v }
}

// WithCoverageFeedback toggles taint-coverage-guided mutation (default
// true); disabling it yields the DejaVuzz− ablation.
func WithCoverageFeedback(on bool) Option {
	return func(s *settings) { s.opts.UseCoverageFeedback = on }
}

// WithLiveness toggles tainted-sink liveness filtering (default true).
func WithLiveness(on bool) Option {
	return func(s *settings) { s.opts.UseLiveness = on }
}

// WithReduction toggles training reduction (default true).
func WithReduction(on bool) Option {
	return func(s *settings) { s.opts.UseReduction = on }
}

// WithInjectedBugs toggles the injected bugs in the core configuration
// (default true); disabling them gives the bugless regression baseline.
func WithInjectedBugs(on bool) Option {
	return func(s *settings) { s.opts.Bugless = !on }
}

// WithSecretRetries sets how many secret pairs Phase 2 tries before
// declaring no taint gain (default 2).
func WithSecretRetries(n int) Option {
	return func(s *settings) { s.opts.SecretRetries = n }
}

// WithMaxCycles bounds each simulation run (default 20000 cycles).
func WithMaxCycles(n int) Option {
	return func(s *settings) { s.opts.MaxCycles = n }
}

// WarmStart is a resolved cross-campaign warm-start set, normally produced
// by dvz-server's corpus store for the campaign's (target, options
// fingerprint): the corpus snapshot it was resolved from, the seed set,
// and the per-family frontier prior. The resolution is a pure function of
// (snapshot content, campaign seed), so recording the three fields in the
// campaign options preserves every determinism guarantee.
type WarmStart struct {
	// Snapshot is the corpus snapshot ID the set was resolved from. It is
	// recorded in checkpoints; resuming a warm-started checkpoint under a
	// different snapshot fails with an option-mismatch error naming
	// corpus_snapshot.
	Snapshot string
	// Seeds become part of the campaign's initial corpus and are each
	// replayed verbatim once before shards draw fresh stimuli.
	Seeds []Seed
	// Prior seeds the scenario scheduler's posterior with per-family
	// frontier evidence (capped so in-campaign evidence overtakes it).
	Prior []FamilyPrior
}

// WithWarmStart injects a warm-start set into the campaign. Every field is
// determinism-relevant — the set reshapes the stimulus streams exactly
// like WithScenarios does — so it is recorded in checkpoints and a resume
// under a different warm-start fails with an option-mismatch error. Seed
// families and prior families must belong to the campaign's enabled
// scenario set; New validates this.
func WithWarmStart(ws WarmStart) Option {
	return func(s *settings) {
		s.opts.CorpusSnapshot = ws.Snapshot
		s.opts.WarmSeeds = append([]Seed(nil), ws.Seeds...)
		s.opts.FrontierPrior = append([]FamilyPrior(nil), ws.Prior...)
	}
}

// WithCheckpointFile enables session checkpoint autosave: merge barriers
// atomically rewrite path with a resumable checkpoint (emitting a
// CheckpointSaved event) — every barrier for short campaigns, throttled to
// a bounded number of saves for long ones — and an interrupted session
// saves its final checkpoint there too. Load it with LoadCheckpoint and
// pass it to Campaign.Resume.
func WithCheckpointFile(path string) Option {
	return func(s *settings) { s.ckptPath = path }
}
