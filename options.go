package dejavuzz

// settings is what functional options mutate: the wire options plus what
// has no wire form, the resolved warm-start set and the checkpoint file.
type settings struct {
	wire     Options
	warm     WarmStart
	ckptPath string
}

// Option configures a campaign built by New or Options.Campaign. The
// functional options are shorthands for the most-used wire fields plus the
// two settings with no wire form (WithWarmStart, WithCheckpointFile); every
// other knob is a field of Options. Options are explicit, so a zero value
// is never mistaken for "unset": WithSeed(0) means seed zero and
// WithIterations(0) means an empty dry run.
type Option func(*settings)

// WithSeed sets the campaign RNG seed (Options.Seed, default 1). Zero is a
// valid seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.wire.Seed, s.wire.SeedSet = seed, true }
}

// WithIterations sets the campaign length (Options.Iterations, default
// 100). Zero runs an empty campaign — useful as a configuration dry run.
func WithIterations(n int) Option {
	return func(s *settings) { s.wire.Iterations, s.wire.IterationsSet = n, true }
}

// WithWorkers sets the number of parallel simulation workers
// (Options.Workers, default 1). Workers only change wall-clock time:
// results are identical for any value.
func WithWorkers(n int) Option {
	return func(s *settings) { s.wire.Workers = n }
}

// WithMergeEvery sets the merge-barrier interval in iterations
// (Options.MergeEvery, default 64). Barriers are where shards merge, events
// stream, cancellation lands and checkpoints are taken; a smaller interval
// gives finer-grained events and cancellation at the cost of more
// synchronisation.
func WithMergeEvery(n int) Option {
	return func(s *settings) { s.wire.MergeEvery = n }
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
// like Options.Scenarios does — so it is recorded in checkpoints and a
// resume under a different warm-start fails with an option-mismatch error.
// Seed families and prior families must belong to the campaign's enabled
// scenario set; the campaign builder validates this.
func WithWarmStart(ws WarmStart) Option {
	return func(s *settings) { s.warm = ws }
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
