package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// corpusCap bounds the merged campaign corpus (the paper keeps a small
// above-average-gain seed pool).
const corpusCap = 256

// Options configures a fuzzing campaign.
type Options struct {
	// Target selects the registered design under test by name. Empty means
	// DefaultTarget; Normalized canonicalises it. The target's Kind()
	// supplies the core personality.
	Target string
	Seed   int64
	// Iterations is the campaign length. Zero is a valid (empty) campaign;
	// callers wanting the engine default should use DefaultOptions.
	Iterations int
	// Workers is the number of OS-level workers executing shards. It affects
	// wall-clock time only: a campaign's results are identical for any
	// Workers value given the same Seed, Iterations, Shards and MergeEvery.
	Workers int
	// Shards is the number of deterministic logical shards. Each shard owns a
	// private generator stream derived from (Seed, shard id, epoch), a
	// private corpus view and a private coverage delta; iteration i belongs
	// to shard i mod Shards. Changing Shards changes results (it reshapes the
	// streams) — changing Workers never does.
	Shards int
	// MergeEvery is the iteration-count barrier interval at which shard
	// coverage deltas and corpus additions merge into the global state, in
	// fixed shard order. Barriers are also the campaign's only cancellation
	// and checkpoint points: streams are reproducible because every event
	// the engine emits happens at a barrier.
	MergeEvery int
	MaxCycles  int

	// Scenarios restricts the campaign to the named scenario families
	// (include filter); nil or empty means every family. Like Shards, the
	// set is determinism-relevant: it reshapes the stimulus streams, is
	// serialised into checkpoints, and a resume with a different set fails
	// with an option-mismatch error.
	Scenarios []string
	// Scheduler names the scenario-scheduling policy. The only policy is
	// "ucb", a deterministic UCB1 bandit that tries every enabled family
	// before exploiting any and never starves one; empty selects it. It is
	// serialised into checkpoints, so a checkpoint naming any other policy
	// fails the option-mismatch check on resume.
	Scheduler string
	// Variant selects derived (DejaVuzz) or random (DejaVuzz*) training.
	Variant gen.Variant
	// UseCoverageFeedback drives mutation from the taint coverage matrix;
	// disabling it yields the DejaVuzz− ablation of Figure 7.
	UseCoverageFeedback bool
	// UseLiveness enables tainted-sink liveness filtering (§4.3.2); the
	// ablation without it reproduces the misclassification counts of §6.3.
	UseLiveness bool
	// UseReduction enables training reduction (Step 1.2).
	UseReduction bool
	// Bugless disables the injected bugs in the core configuration
	// (regression baseline).
	Bugless bool
	// SecretRetries is how many secret pairs Phase 2 tries before declaring
	// no taint gain — the paper's §7 mitigation for diffIFT false negatives
	// (a secret pair can coincide on a control signal). swapMem's dedicated
	// region makes retrying cheap: only the secret is reloaded.
	SecretRetries int

	// CorpusSnapshot identifies the cross-campaign corpus snapshot the
	// campaign was warm-started from (empty for a cold start). The engine
	// never dereferences it — WarmSeeds and FrontierPrior carry the resolved
	// content — but it is determinism-relevant bookkeeping: the warm-start
	// set is a pure function of (snapshot ID, campaign seed), so the ID is
	// serialised into checkpoints and a resume under a different snapshot
	// fails with an option-mismatch error naming corpus_snapshot.
	CorpusSnapshot string
	// WarmSeeds is the warm-start seed set harvested from earlier campaigns
	// on the same target: each seed becomes part of the initial merged
	// corpus (so coverage-feedback mutation works from it immediately) and
	// is replayed verbatim once by its owning shard before that shard draws
	// fresh stimuli. The set is determinism-relevant — it reshapes the
	// stimulus streams — and is serialised into checkpoints with the rest
	// of the options.
	WarmSeeds []gen.Seed
	// FrontierPrior seeds the scenario scheduler's posterior with
	// per-family frontier statistics from the corpus store, so a
	// warm-started campaign begins exploiting what earlier campaigns
	// learned about family yield. Like WarmSeeds it is determinism-relevant
	// and checkpointed.
	FrontierPrior []scenario.Prior

	// FreshContexts disables per-shard execution-context reuse: every
	// simulation rebuilds its DUT state (address space, core model, swap
	// runtime) from scratch instead of resetting the shard's long-lived
	// context in place. Reset is provably equivalent to fresh construction,
	// so this never changes results — only wall-clock time and allocation
	// volume. It exists as the reference mode the reset-equivalence tests
	// compare against, and as an escape hatch. Like Workers, it is ignored
	// by DiffFrom and not serialised into checkpoints.
	FreshContexts bool `json:"-"`

	// OnBarrier, when set, is called after every merge barrier with the
	// barrier's full event payload: progress (Done, Total, Coverage), the
	// epoch's findings in iteration order and a Snapshot hook for
	// checkpointing. It runs on the engine goroutine at deterministic
	// points, so it is safe for streaming progress and checkpoint hooks.
	OnBarrier func(b *Barrier) `json:"-"`
}

// Normalized returns the options with engine defaults applied — the exact
// options a Report produced by NewFuzzer(o).Run() will carry.
func (o Options) Normalized() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.MergeEvery <= 0 {
		o.MergeEvery = 64
	}
	if o.Iterations < 0 {
		o.Iterations = 0
	}
	if o.Target == "" {
		o.Target = DefaultTarget
	}
	o.Scenarios = normalizeScenarios(o.Scenarios)
	if o.Scheduler == "" {
		o.Scheduler = string(scenario.DefaultPolicy)
	}
	// Empty warm-start slices collapse to nil so a cold campaign and a
	// "warm" campaign that resolved zero seeds compare EquivalentTo.
	if len(o.WarmSeeds) == 0 {
		o.WarmSeeds = nil
	}
	if len(o.FrontierPrior) == 0 {
		o.FrontierPrior = nil
	}
	return o
}

// normalizeScenarios sorts and deduplicates a scenario filter; empty
// collapses to nil (every family).
func normalizeScenarios(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}

// ValidateScenarios checks a scenario filter against the scenario table.
func ValidateScenarios(names []string) error {
	for _, n := range names {
		if _, err := scenario.Lookup(n); err != nil {
			return err
		}
	}
	return nil
}

// ValidateWarmStart checks a warm-start seed set and frontier prior
// against a campaign's enabled scenario families: every warm seed must be
// well-formed (gen.Seed.Validate — a malformed one would panic the shard
// that replays it), and every warm seed's family and every prior row must
// belong to the enabled set, or the campaign's statistics and scheduling
// would silently track families it cannot sample. The warm-start resolver
// filters by family before building options, so a family violation here
// means caller drift, not user error.
func ValidateWarmStart(seeds []gen.Seed, prior []scenario.Prior, families []string) error {
	enabled := make(map[string]bool, len(families))
	for _, f := range families {
		enabled[f] = true
	}
	for i, sd := range seeds {
		if err := sd.Validate(); err != nil {
			return fmt.Errorf("warm seed %d: %w", i, err)
		}
		if fam := gen.ScenarioName(sd); !enabled[fam] {
			return fmt.Errorf("warm seed %d has scenario family %q outside the campaign's enabled set", i, fam)
		}
	}
	for _, p := range prior {
		if !enabled[p.Name] {
			return fmt.Errorf("frontier prior names family %q outside the campaign's enabled set", p.Name)
		}
	}
	return nil
}

// EquivalentTo reports whether two option sets are determinism-equivalent:
// DiffFrom finds no difference between them.
func (o Options) EquivalentTo(other Options) bool {
	return len(o.DiffFrom(other)) == 0
}

// optionsDeterminismIrrelevant names the Options fields DiffFrom
// deliberately does not enumerate, with the reason each one cannot change
// campaign results. TestOptionsFieldClassification checks that every
// Options field is either named by DiffFrom or listed here — adding a
// field without classifying it fails the test — and that this set never
// drifts to include a field DiffFrom also enumerates.
var optionsDeterminismIrrelevant = map[string]string{
	"Workers":       "OS-level parallelism only; shards are the determinism unit and results are identical for any Workers value",
	"FreshContexts": "reference mode for the reset-equivalence suite; reset is proven equivalent to fresh construction, so results never change",
	"OnBarrier":     "observation hook invoked at deterministic barrier points; it receives results, it cannot shape them",
}

// DiffFrom describes, field by field, how two option sets differ in their
// determinism-relevant fields, after normalization. It is the one
// definition of option equivalence (EquivalentTo is "DiffFrom finds
// nothing"), and the human-readable half of the option-mismatch
// invalidation path, so a refused checkpoint resume names exactly what
// changed (e.g. a different -scenarios set) instead of reporting a bare
// mismatch. Each field is compared raw; the named types below only render
// the message.
func (o Options) DiffFrom(other Options) []string {
	a, b := o.Normalized(), other.Normalized()
	var diffs []string
	add := func(field string, have, want any) {
		if !reflect.DeepEqual(have, want) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", field, have, want))
		}
	}
	add("target", a.Target, b.Target)
	add("seed", a.Seed, b.Seed)
	add("iterations", a.Iterations, b.Iterations)
	add("shards", a.Shards, b.Shards)
	add("merge_every", a.MergeEvery, b.MergeEvery)
	add("max_cycles", a.MaxCycles, b.MaxCycles)
	add("scenarios", scenarioSet(a.Scenarios), scenarioSet(b.Scenarios))
	add("scheduler", a.Scheduler, b.Scheduler)
	add("variant", a.Variant, b.Variant)
	add("coverage_feedback", a.UseCoverageFeedback, b.UseCoverageFeedback)
	add("liveness", a.UseLiveness, b.UseLiveness)
	add("reduction", a.UseReduction, b.UseReduction)
	add("bugless", a.Bugless, b.Bugless)
	add("secret_retries", a.SecretRetries, b.SecretRetries)
	add("corpus_snapshot", snapshotID(a.CorpusSnapshot), snapshotID(b.CorpusSnapshot))
	add("warm_seeds", warmSeeds(a.WarmSeeds), warmSeeds(b.WarmSeeds))
	add("frontier_prior", frontierPrior(a.FrontierPrior), frontierPrior(b.FrontierPrior))
	return diffs
}

// scenarioSet renders a normalized scenario filter.
type scenarioSet []string

func (s scenarioSet) String() string {
	if len(s) == 0 {
		return "all"
	}
	return strings.Join(s, ",")
}

// snapshotID renders a corpus snapshot ID: "cold" for none, otherwise the
// quoted ID, so no ID can render like a cold start.
type snapshotID string

func (id snapshotID) String() string {
	if id == "" {
		return "cold"
	}
	return strconv.Quote(string(id))
}

// warmSeeds renders a warm-start seed set as a short, deterministic
// description so DiffFrom's option-mismatch message stays readable (the
// set itself can be dozens of structured seeds). The digest is a pure
// function of the seeds' JSON form.
type warmSeeds []gen.Seed

func (seeds warmSeeds) String() string {
	if len(seeds) == 0 {
		return "none"
	}
	return fmt.Sprintf("%d seeds (%s)", len(seeds), jsonDigest(seeds))
}

// frontierPrior is warmSeeds' analogue for the scheduler prior.
type frontierPrior []scenario.Prior

func (prior frontierPrior) String() string {
	if len(prior) == 0 {
		return "none"
	}
	return fmt.Sprintf("%d families (%s)", len(prior), jsonDigest(prior))
}

func jsonDigest(v any) string {
	enc, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("unencodable: %v", err)
	}
	h := fnv.New64a()
	h.Write(enc)
	return fmt.Sprintf("digest %016x", h.Sum64())
}

// Engine defaults that more than one layer reads: the campaign seed and
// length a configuration gets when it names none, and the per-simulation
// cycle budget a run gets when its MaxCycles is zero.
const (
	DefaultSeed       = 1
	DefaultIterations = 100
	DefaultMaxCycles  = 20000
)

// DefaultOptions returns the standard DejaVuzz configuration: Normalized's
// engine defaults plus the full fuzzer's toggles.
func DefaultOptions(core uarch.CoreKind) Options {
	return Options{
		Target:              BuiltinTargetName(core),
		Seed:                DefaultSeed,
		Iterations:          DefaultIterations,
		MaxCycles:           DefaultMaxCycles,
		Variant:             gen.VariantDerived,
		UseCoverageFeedback: true,
		UseLiveness:         true,
		UseReduction:        true,
		SecretRetries:       2,
	}.Normalized()
}

// DefaultOptionsFor returns the standard configuration for a registered
// target.
func DefaultOptionsFor(t Target) Options {
	opts := DefaultOptions(t.Kind())
	opts.Target = t.Name()
	return opts
}

// IterStat records one fuzzing iteration's outcome (Figure 7's x-axis unit).
type IterStat struct {
	Iteration int
	// Scenario is the iteration's scenario family (the scheduler's pick, or
	// the mutated corpus seed's family).
	Scenario  string
	Trigger   gen.TriggerType
	Triggered bool
	TaintGain bool
	// NewPoints is the iteration's coverage gain relative to its shard's
	// view (epoch-start global state plus the shard's own delta); sibling
	// shards discovering the same point in one epoch each count it.
	NewPoints int
	// Coverage is the cumulative campaign coverage after this iteration.
	// Within an epoch it interpolates from shard-local gains (an upper
	// bound); at every merge barrier it is exact — equal to the merged
	// global matrix count — so the final entry always equals
	// Report.Coverage.
	Coverage int
	Sims     int
	Finding  bool
}

// ScenarioStat is one scenario family's cumulative campaign statistics:
// how often the scheduler picked it, what it yielded, and its current
// adaptive sampling weight. The engine reports them on every merge barrier
// (per-family observables for session streams) and in the final report.
type ScenarioStat struct {
	Name string `json:"name"`
	// Picks is how many iterations ran this family.
	Picks int `json:"picks"`
	// Points is the family's accumulated shard-local coverage gain.
	Points int `json:"points"`
	// Findings counts the family's reported findings.
	Findings int `json:"findings"`
	// Weight is the scheduler's sampling weight after the latest barrier:
	// MeanYield+ExplorationBonus.
	Weight float64 `json:"weight"`
	// MeanYield is the family's posterior mean yield per pick — cumulative
	// points plus bonused findings over cumulative picks (0 while untried).
	MeanYield float64 `json:"mean_yield"`
	// ExplorationBonus is the bandit's optimism term: it grows for families
	// the campaign has not looked at recently, which is what guarantees no
	// family starves.
	ExplorationBonus float64 `json:"exploration_bonus"`
	// FirstFindingIter is the iteration of the family's first finding
	// (-1 when it has none yet) — the time-to-first-finding probe.
	FirstFindingIter int `json:"first_finding_iter"`
}

// Report is a fuzzing campaign's result.
type Report struct {
	Options   Options
	Findings  []Finding
	Iters     []IterStat
	Scenarios []ScenarioStat // per-family stats, sorted by name
	Coverage  int
	Sims      int
	Duration  time.Duration
	DeadSinks int // findings suppressed by liveness analysis
}

// CoverageHistory returns cumulative coverage per iteration (Figure 7 series).
func (r *Report) CoverageHistory() []int {
	out := make([]int, len(r.Iters))
	for i, s := range r.Iters {
		out[i] = s.Coverage
	}
	return out
}

// EpochMark is one merge barrier's merged coverage count, used for
// coverage-history reconciliation and checkpoint resume. Mark k is the
// barrier ending at iteration min((k+1)·MergeEvery, Iterations).
type EpochMark struct {
	Count int `json:"count"`
}

// ShardState is the persistent (cross-epoch) feedback state of one shard.
// How many seeds the shard has picked, and so how far its warm replay got,
// is not stored: both follow from the iteration (see picksBefore).
type ShardState struct {
	AvgGain   float64 `json:"avg_gain"`
	GainCount int     `json:"gain_count"`
}

// EngineStateVersion guards the checkpoint format against drift; any other
// version is refused (see Migrate). Version-3 files that still carry
// "epoch", "sched_state", "scenario_stats", a shard's "pick_count" and
// "warm_consumed" or a mark's "end" load too: decoding ignores those keys,
// since resume derives each of them.
const EngineStateVersion = 3

// EngineState is a resumable mid-campaign snapshot, taken at a merge
// barrier. Because shard generators are re-seeded from (campaign seed,
// shard, epoch) at every epoch and all cross-shard state merges at barriers,
// this struct is the campaign's complete determinism-relevant state: a
// fuzzer rebuilt from it finishes with results byte-identical (modulo
// wall-clock fields) to an uninterrupted run. It stores each fact once; the
// epoch ordinal (NextIter / MergeEvery), each shard's pick count, each
// mark's end iteration and the per-family statistics and scheduler
// posterior (folded from Iters) are derived on resume. It round-trips
// through JSON; JSONPieces is its one encoder.
type EngineState struct {
	Version int `json:"version"`
	// Options are the campaign's normalized options (hooks are not
	// serialised; the resuming caller re-attaches its own).
	Options Options `json:"options"`
	// NextIter is the first iteration of the next epoch to run.
	NextIter  int          `json:"next_iter"`
	Corpus    []gen.Seed   `json:"corpus"`
	Coverage  []CovPoint   `json:"coverage"`
	Shards    []ShardState `json:"shards"`
	Findings  []Finding    `json:"findings"`
	Iters     []IterStat   `json:"iters"`
	Marks     []EpochMark  `json:"marks"`
	DeadSinks int          `json:"dead_sinks"`
	// Elapsed is the campaign's wall time up to the barrier, so a resumed
	// campaign's Report.Duration covers every segment. Like Duration it is
	// measurement only: no result reads it, and it is left out of every
	// byte-identity comparison.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`

	// memo is the taking fuzzer's record encodings (nil when decoded); see
	// JSONPieces.
	memo *recordMemo
}

// Migrate checks a decoded engine state's version: any version but
// EngineStateVersion is refused with an error naming it, since only the
// current format resumes byte-identically.
func (st *EngineState) Migrate() error {
	if st.Version != EngineStateVersion {
		return fmt.Errorf("core: engine state version %d, want %d", st.Version, EngineStateVersion)
	}
	return nil
}

// HarvestedSeed is one corpus-worthy stimulus surfaced at a merge
// barrier: a seed the epoch found interesting — it beat its shard's
// average coverage gain (the corpus-keep rule) or produced a finding —
// together with the evidence. Barriers expose the epoch's harvest so a
// corpus service can persist interesting seeds across campaigns without
// the engine knowing the store exists.
type HarvestedSeed struct {
	// Iteration is the campaign iteration that produced the observation;
	// with the campaign it locates the observation (the corpus keeps the
	// earliest of equally good ones).
	Iteration int      `json:"iteration"`
	Seed      gen.Seed `json:"seed"`
	// NewPoints is the iteration's shard-local coverage gain.
	NewPoints int `json:"new_points"`
	// Finding marks observations that produced a finding.
	Finding bool `json:"finding"`
}

// Barrier is the payload of one merge-barrier event.
type Barrier struct {
	// Epoch is the barrier's ordinal since campaign start (a resumed run
	// starts at NextIter / MergeEvery, so ordinals are campaign-absolute).
	Epoch int
	// Done/Total are completed and total campaign iterations.
	Done, Total int
	// Coverage is the merged global coverage count.
	Coverage int
	// Findings are the findings merged at this barrier, iteration-ordered.
	Findings []Finding
	// Scenarios are the cumulative per-family statistics after this
	// barrier's scheduler update, sorted by name.
	Scenarios []ScenarioStat
	// Harvest is the epoch's corpus-worthy seeds in iteration order:
	// coverage-feedback keepers and finding producers (see HarvestedSeed).
	// It is event payload only — not part of the resumable state — so a
	// corpus consumer must tolerate replays: a resumed campaign re-emits a
	// byte-identical prefix of what it emitted before, so everything at or
	// below the highest iteration already absorbed is a replay.
	Harvest []HarvestedSeed

	snapshot func() *EngineState
}

// Snapshot captures the engine's resumable state at this barrier. It is
// only valid during the OnBarrier callback (the engine goroutine is parked
// at the barrier, so the snapshot is consistent).
func (b *Barrier) Snapshot() *EngineState { return b.snapshot() }

// Fuzzer is the DejaVuzz fuzzing manager.
type Fuzzer struct {
	opts     Options
	kind     uarch.CoreKind // the target's core personality
	cfg      uarch.Config
	gen      *gen.Generator
	coverage *Coverage
	corpus   []gen.Seed // merged global corpus, mutated only at barriers
	pipeline Pipeline
	// families is the campaign's enabled scenario set (sorted); sched is the
	// coverage-adaptive sampler over it, read-only during epochs and updated
	// at barriers; scnStats accumulates per-family campaign statistics.
	families []string
	sched    *scenario.Scheduler
	scnStats map[string]*ScenarioStat
	// seq is the lazily built sequential pipeline the exported Phase1/2/3
	// and Reproduce entry points borrow (single-goroutine use only).
	seq *uarchShard

	// resume state (zero on a fresh campaign)
	startIter int
	shards    []*shard
	iters     []IterStat
	marks     []EpochMark
	findings  []Finding
	deadSinks int
	started   bool
	// start is when this run began, and elapsedBefore the wall time of the
	// segments before it (EngineState.Elapsed); see elapsed.
	start         time.Time
	elapsedBefore time.Duration
	// memo is shared by every snapshot the fuzzer takes.
	memo *recordMemo
}

// NewFuzzer builds a fuzzer for the options. The options' Target (empty
// means DefaultTarget) must name a registered target; an unknown name
// panics — validate with LookupTarget first when the name is user-supplied.
func NewFuzzer(opts Options) *Fuzzer {
	opts = opts.Normalized()
	t, err := LookupTarget(opts.Target)
	if err != nil {
		panic(fmt.Sprintf("core: NewFuzzer: %v", err))
	}
	if err := ValidateScenarios(opts.Scenarios); err != nil {
		panic(fmt.Sprintf("core: NewFuzzer: %v", err))
	}
	cfg := uarch.ConfigFor(t.Kind())
	if opts.Bugless {
		cfg.Bugs = uarch.BugSet{}
	}
	families := opts.Scenarios
	if len(families) == 0 {
		families = scenario.Names()
	}
	policy, err := scenario.ParsePolicy(opts.Scheduler)
	if err != nil {
		panic(fmt.Sprintf("core: NewFuzzer: %v", err))
	}
	if err := ValidateWarmStart(opts.WarmSeeds, opts.FrontierPrior, families); err != nil {
		panic(fmt.Sprintf("core: NewFuzzer: %v", err))
	}
	// A frontier prior seeds the scheduler's posterior; checkpoint resume
	// adds the campaign's cumulative yield on top (NewFuzzerFromState).
	sched, err := scenario.NewSchedulerWithPrior(families, policy, opts.FrontierPrior)
	if err != nil {
		panic(fmt.Sprintf("core: NewFuzzer: %v", err))
	}
	f := &Fuzzer{
		opts:     opts,
		kind:     t.Kind(),
		cfg:      cfg,
		gen:      gen.New(opts.Seed),
		coverage: NewCoverage(),
		families: families,
		sched:    sched,
		scnStats: make(map[string]*ScenarioStat, len(families)),
		memo:     &recordMemo{},
	}
	// The fuzzer-level generator (the Generator() seam experiments and
	// examples mutate through) honours the campaign's scenario filter just
	// like the per-shard generators do.
	f.gen.SetScenarios(families)
	f.pipeline = t.NewPipeline(f)
	f.shards = make([]*shard, opts.Shards)
	for i := range f.shards {
		// Every shard owns a pipeline instance — and through it a private
		// execution context — for the campaign's whole lifetime.
		f.shards[i] = &shard{f: f, id: i, pipe: f.pipeline.NewShard()}
	}
	// Warm start: the resolved seed set becomes the initial merged corpus
	// (so coverage-feedback mutation works from it in epoch 0) and is dealt
	// round-robin to the shards for one verbatim replay each — replaying a
	// proven seed re-establishes its coverage points directly instead of
	// waiting for a lucky mutation. Both effects are pure functions of the
	// options, so worker-count independence and resume byte-identity hold
	// unchanged.
	if len(opts.WarmSeeds) > 0 {
		f.corpus = append([]gen.Seed(nil), opts.WarmSeeds...)
		for j, sd := range opts.WarmSeeds {
			s := f.shards[j%opts.Shards]
			s.warm = append(s.warm, sd)
		}
	}
	f.iters = make([]IterStat, opts.Iterations)
	return f
}

// seqShard returns the fuzzer's sequential three-phase pipeline, building it
// on first use. It backs the exported Phase1/Phase2/Phase3/Reproduce entry
// points (experiments, examples, tests); campaign shards have their own.
func (f *Fuzzer) seqShard() *uarchShard {
	if f.seq == nil {
		f.seq = newUarchShard(f)
	}
	return f.seq
}

// OptionMismatchError is NewFuzzerFromState's refusal of a snapshot whose
// options are not determinism-equivalent to the campaign's; Diffs is
// DiffFrom's list (campaign vs checkpoint).
type OptionMismatchError struct {
	Diffs []string
}

func (e *OptionMismatchError) Error() string {
	return "core: option mismatch between campaign and checkpoint (campaign vs checkpoint): " +
		strings.Join(e.Diffs, "; ")
}

// NewFuzzerFromState rebuilds a fuzzer from a barrier snapshot. The
// supplied options must be determinism-equivalent to the snapshot's (they
// may differ in Workers and hooks); the resumed campaign finishes with
// results byte-identical (modulo wall-clock fields) to an uninterrupted
// run of the same options.
func NewFuzzerFromState(st *EngineState, opts Options) (*Fuzzer, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil engine state")
	}
	if err := st.Migrate(); err != nil {
		return nil, err
	}
	if diffs := opts.DiffFrom(st.Options); len(diffs) > 0 {
		return nil, &OptionMismatchError{Diffs: diffs}
	}
	norm := st.Options.Normalized()
	norm.Workers = opts.Normalized().Workers
	norm.OnBarrier = opts.OnBarrier
	if len(st.Shards) != norm.Shards {
		return nil, fmt.Errorf("core: engine state has %d shard records, want %d", len(st.Shards), norm.Shards)
	}
	if st.NextIter < 0 || st.NextIter > norm.Iterations || len(st.Iters) != st.NextIter {
		return nil, fmt.Errorf("core: engine state iteration bounds corrupt (next=%d, iters=%d, total=%d)",
			st.NextIter, len(st.Iters), norm.Iterations)
	}
	// Snapshots are only taken at barriers; resuming anywhere else would
	// re-run part of an epoch under the next epoch's generator seeds and
	// silently break the byte-identical-resume guarantee.
	if st.NextIter%norm.MergeEvery != 0 && st.NextIter != norm.Iterations {
		return nil, fmt.Errorf("core: engine state next_iter %d is not a barrier (merge every %d, %d iterations)",
			st.NextIter, norm.MergeEvery, norm.Iterations)
	}
	if st.Elapsed < 0 {
		return nil, fmt.Errorf("core: engine state elapsed_ns %d is negative", st.Elapsed)
	}
	f := NewFuzzer(norm)
	// Each enabled family's trigger class: the checks below look a seed's or
	// a record's family up once, and a family outside the set is refused.
	classes := make(map[string]gen.TriggerType, len(f.families))
	for _, name := range f.families {
		fam, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		classes[name] = fam.Trigger
	}
	// Corpus seeds are mutated and rebuilt, and finding seeds replayed, by
	// the resumed campaign: refuse a malformed one here, where there is an
	// error path, instead of letting it reach a shard. Most mutations keep
	// a seed's family, so a corpus seed must belong to the enabled set, or
	// its offspring would be records of a family the scheduler does not run.
	for i, sd := range st.Corpus {
		if err := sd.Validate(); err != nil {
			return nil, fmt.Errorf("core: engine state corpus seed %d: %w", i, err)
		}
		if _, ok := classes[sd.Scenario]; !ok {
			return nil, fmt.Errorf("core: engine state corpus seed %d has scenario family %q outside the campaign's enabled set", i, sd.Scenario)
		}
	}
	// Barriers merge findings in iteration order, at most one per
	// iteration, and an iteration yields a finding or a dead sink, not both.
	for i := range st.Findings {
		if err := st.Findings[i].Seed.Validate(); err != nil {
			return nil, fmt.Errorf("core: engine state finding %d seed: %w", i, err)
		}
		if it := st.Findings[i].Iteration; it >= st.NextIter || i > 0 && it <= st.Findings[i-1].Iteration {
			return nil, fmt.Errorf("core: engine state findings[%d] is at iteration %d; want strictly increasing iterations below next_iter %d",
				i, it, st.NextIter)
		}
	}
	if most := st.NextIter - len(st.Findings); st.DeadSinks < 0 || st.DeadSinks > most {
		return nil, fmt.Errorf("core: engine state dead_sinks %d outside [0, %d]", st.DeadSinks, most)
	}
	// A record's Iteration, Trigger and Finding restate its index, its
	// family's class and the findings, and a finding's Scenario and Window
	// restate its seed's family and that family's class, so they are
	// recomputed (and a record's Coverage is finalize's); what the fold
	// reads and nothing recomputes, a record's family and counts, is
	// checked, and so is a finding's seed against its iteration's record.
	f.findings = append([]Finding(nil), st.Findings...)
	found := 0
	for i, it := range st.Iters {
		class, ok := classes[it.Scenario]
		if !ok {
			return nil, fmt.Errorf("core: engine state iters[%d] has scenario family %q outside the campaign's enabled set", i, it.Scenario)
		}
		if it.NewPoints < 0 || it.Sims < 0 {
			return nil, fmt.Errorf("core: engine state iters[%d] has negative counts (NewPoints %d, Sims %d)", i, it.NewPoints, it.Sims)
		}
		finding := found < len(f.findings) && f.findings[found].Iteration == i
		if finding {
			fd := &f.findings[found]
			if fam := gen.ScenarioName(fd.Seed); fam != it.Scenario {
				return nil, fmt.Errorf("core: engine state findings[%d] has a seed of scenario family %q, but iters[%d] holds %q",
					found, fam, i, it.Scenario)
			}
			fd.Scenario, fd.Window = it.Scenario, class
			found++
		}
		f.iters[i] = IterStat{Iteration: i, Scenario: it.Scenario, Trigger: class, Triggered: it.Triggered,
			TaintGain: it.TaintGain, NewPoints: it.NewPoints, Sims: it.Sims, Finding: finding}
	}
	f.elapsedBefore = st.Elapsed
	f.startIter = st.NextIter
	f.corpus = append([]gen.Seed(nil), st.Corpus...)
	f.coverage.AddPoints(st.Coverage)
	f.marks = append([]EpochMark(nil), st.Marks...)
	f.deadSinks = st.DeadSinks
	if err := f.checkMarks(); err != nil {
		return nil, err
	}
	for i, s := range f.shards {
		// A shard measures each of its picks at most once.
		ss := st.Shards[i]
		if picks := picksBefore(st.NextIter, i, norm.Shards); ss.GainCount < 0 || ss.GainCount > picks {
			return nil, fmt.Errorf("core: engine state shard %d gain_count %d outside [0, %d]", i, ss.GainCount, picks)
		}
		s.avgGain = ss.AvgGain
		s.gainCount = ss.GainCount
	}
	// The scheduler's posterior is the frontier prior NewFuzzer seeded plus
	// the campaign's per-family yield, and its weights are a pure function
	// of that posterior, so one fold of every restored record leaves it,
	// and the per-family statistics, exactly as the barriers' folds did.
	f.sched.Update(f.fold(0, st.NextIter))
	return f, nil
}

// checkMarks checks restored barrier marks, which finalize pins the
// coverage history to (Figure 7's series): one mark per barrier before the
// resume point, with merged counts that never decrease and that end at the
// restored coverage.
func (f *Fuzzer) checkMarks() error {
	every := f.opts.MergeEvery
	if want := (f.startIter + every - 1) / every; len(f.marks) != want {
		return fmt.Errorf("core: engine state has %d marks, want %d (one per barrier before next_iter %d)",
			len(f.marks), want, f.startIter)
	}
	count := 0
	for k, m := range f.marks {
		if m.Count < count {
			return fmt.Errorf("core: engine state marks[%d] has count %d, want at least %d", k, m.Count, count)
		}
		count = m.Count
	}
	if cov := f.coverage.Count(); count != cov {
		return fmt.Errorf("core: engine state marks end at count %d, but coverage holds %d points", count, cov)
	}
	return nil
}

// fold adds iterations [lo, hi) to the per-family statistics and returns
// their per-family yield for the scheduler's Update, reading the records
// in iteration order. A barrier folds its epoch; resume folds every
// restored record at once.
func (f *Fuzzer) fold(lo, hi int) map[string]scenario.Yield {
	yield := make(map[string]scenario.Yield, len(f.families))
	for i := lo; i < hi; i++ {
		it := &f.iters[i]
		cs := f.scnStats[it.Scenario]
		if cs == nil {
			cs = &ScenarioStat{Name: it.Scenario, FirstFindingIter: -1}
			f.scnStats[it.Scenario] = cs
		}
		y := yield[it.Scenario]
		y.Picks++
		y.Points += it.NewPoints
		cs.Picks++
		cs.Points += it.NewPoints
		if it.Finding {
			y.Findings++
			cs.Findings++
			if cs.FirstFindingIter < 0 {
				cs.FirstFindingIter = i
			}
		}
		yield[it.Scenario] = y
	}
	return yield
}

// snapshot captures the engine state between epochs. Only called from the
// engine goroutine at a barrier (or before the first epoch), when all shard
// state is merged and quiescent.
func (f *Fuzzer) snapshot(nextIter int) *EngineState {
	st := &EngineState{
		Version:   EngineStateVersion,
		Options:   f.opts,
		NextIter:  nextIter,
		Corpus:    append([]gen.Seed(nil), f.corpus...),
		Coverage:  f.coverage.Points(),
		Shards:    make([]ShardState, len(f.shards)),
		Findings:  append([]Finding(nil), f.findings...),
		Iters:     append([]IterStat(nil), f.iters[:nextIter]...),
		Marks:     append([]EpochMark(nil), f.marks...),
		DeadSinks: f.deadSinks,
		Elapsed:   f.elapsed(),
		memo:      f.memo,
	}
	st.Options.OnBarrier = nil
	for i, s := range f.shards {
		st.Shards[i] = ShardState{AvgGain: s.avgGain, GainCount: s.gainCount}
	}
	return st
}

// scenarioStats exports cumulative per-family statistics, sorted by name,
// with each family's current scheduler weight, posterior mean yield and
// exploration bonus filled in. Families the campaign has not picked yet are
// included at zero so consumers always see the full enabled set.
func (f *Fuzzer) scenarioStats() []ScenarioStat {
	out := make([]ScenarioStat, 0, len(f.families))
	for _, name := range f.families {
		w, mean, bonus := f.sched.Probe(name)
		if cs, ok := f.scnStats[name]; ok {
			s := *cs
			s.Weight, s.MeanYield, s.ExplorationBonus = w, mean, bonus
			out = append(out, s)
			continue
		}
		out = append(out, ScenarioStat{
			Name: name, Weight: w, MeanYield: mean, ExplorationBonus: bonus,
			FirstFindingIter: -1,
		})
	}
	return out
}

// ScenarioFamilies returns the campaign's enabled scenario families, sorted.
func (f *Fuzzer) ScenarioFamilies() []string { return append([]string(nil), f.families...) }

// Options returns the fuzzer's normalized options.
func (f *Fuzzer) Options() Options { return f.opts }

// Config returns the (bug-gated) core configuration under test.
func (f *Fuzzer) Config() uarch.Config { return f.cfg }

// Coverage exposes the live coverage matrix.
func (f *Fuzzer) Coverage() *Coverage { return f.coverage }

func (f *Fuzzer) runOpts(mode uarch.IFTMode, taintTrace bool) RunOpts {
	return RunOpts{Cfg: f.cfg, Mode: mode, TaintTrace: taintTrace, MaxCycles: f.opts.MaxCycles}
}

// shard is one deterministic slice of a campaign: a private generator
// stream, a private corpus view and a private coverage delta. A shard is
// only ever touched by one worker at a time, so it needs no locks; its state
// depends only on (campaign seed, shard id, epoch) and the barrier-merged
// global state, never on worker scheduling.
type shard struct {
	f    *Fuzzer
	id   int
	pipe ShardPipeline  // long-lived pipeline instance (owns the exec context)
	gen  *gen.Generator // re-seeded every epoch from (seed, id, epoch)

	// corpus is the epoch-start snapshot of the global corpus (capacity-
	// clamped so appends never alias sibling shards) plus local appends.
	corpus   []gen.Seed
	newSeeds []gen.Seed // local appends this epoch, merged at the barrier
	cov      *Delta

	// warm is the shard's slice of the campaign's warm-start seeds, each
	// replayed verbatim, in order, by the shard's first picks.
	warm []gen.Seed

	avgGain   float64
	gainCount int
	findings  []Finding       // this epoch's findings, merged at the barrier
	deadSinks int             // this epoch's dead-sink count, merged at the barrier
	harvest   []HarvestedSeed // this epoch's corpus-worthy seeds, merged at the barrier
}

// picksBefore is how many seeds shard id has picked before iteration
// iter: the shard runs iterations id, id+shards, id+2·shards and so on,
// one pick each.
func picksBefore(iter, id, shards int) int {
	return (iter - id + shards - 1) / shards
}

// nextSeed picks iteration iter's seed: replay a pending warm-start seed
// verbatim, mutate a corpus member (coverage feedback) or draw a fresh
// one.
func (s *shard) nextSeed(iter int) gen.Seed {
	k := picksBefore(iter, s.id, s.f.opts.Shards)
	if k < len(s.warm) {
		sd := s.warm[k]
		// Replay under the campaign's own variant; the compatibility
		// fingerprint makes this a no-op for store-resolved warm sets.
		sd.Variant = s.f.opts.Variant
		return sd
	}
	if s.f.opts.UseCoverageFeedback && len(s.corpus) > 0 && k%2 == 0 {
		return s.gen.Mutate(s.corpus[k/2%len(s.corpus)])
	}
	// Fresh seeds draw their family through the campaign's coverage-adaptive
	// scheduler (read-only during the epoch; the shard's own RNG supplies
	// the randomness, so streams stay worker-independent).
	sd := s.gen.ScheduledSeed(s.f.kind, s.f.sched)
	sd.Variant = s.f.opts.Variant
	return sd
}

// feedback folds one measured iteration into the shard's running gain
// average and reports whether the seed was kept for the corpus.
func (s *shard) feedback(seed gen.Seed, newPoints int, taintGain bool) bool {
	s.gainCount++
	s.avgGain += (float64(newPoints) - s.avgGain) / float64(s.gainCount)
	if !s.f.opts.UseCoverageFeedback {
		return false
	}
	// Keep seeds whose coverage gain beats the running average (the paper's
	// "less than the average increase -> mutate / discard" rule).
	if taintGain && float64(newPoints) >= s.avgGain {
		s.corpus = append(s.corpus, seed)
		s.newSeeds = append(s.newSeeds, seed)
		return true
	}
	return false
}

// runIteration executes one fuzzing iteration through the target pipeline
// against the shard's private state.
func (s *shard) runIteration(iter int) IterStat {
	seed := s.nextSeed(iter)
	stat := IterStat{Iteration: iter, Scenario: gen.ScenarioName(seed), Trigger: gen.TriggerClass(seed)}

	out := s.pipe.RunIteration(iter, seed, s.cov)
	stat.Triggered = out.Triggered
	stat.TaintGain = out.TaintGain
	stat.NewPoints = out.NewPoints
	stat.Sims = out.Sims
	kept := false
	if out.Measured {
		kept = s.feedback(seed, out.NewPoints, out.TaintGain)
	}
	if out.Finding != nil {
		finding := *out.Finding
		finding.Iteration = iter
		stat.Finding = true
		s.findings = append(s.findings, finding)
	} else if out.DeadSinksOnly {
		s.deadSinks++
	}
	// Corpus-worthy observations — coverage keepers and finding producers —
	// are surfaced to the barrier's harvest for cross-campaign persistence.
	if kept || stat.Finding {
		s.harvest = append(s.harvest, HarvestedSeed{
			Iteration: iter,
			Seed:      seed,
			NewPoints: out.NewPoints,
			Finding:   stat.Finding,
		})
	}
	return stat
}

// Run executes the campaign and returns its report. Reports are
// deterministic in (Seed, Iterations, Shards, MergeEvery): the same options
// yield byte-identical Findings, Iters and Coverage whether Workers is 1 or
// 16 (only the wall-clock Duration varies).
//
// A Fuzzer executes at most one campaign: since it carries the campaign's
// cross-epoch state (for barrier snapshots and resume), a second
// Run/RunContext call panics — build a fresh Fuzzer instead.
func (f *Fuzzer) Run() *Report {
	rep, _ := f.RunContext(context.Background())
	return rep
}

// RunContext executes the campaign until completion or context
// cancellation. Cancellation is honoured at the next merge barrier — the
// only point where cross-shard state is consistent — and yields a resumable
// snapshot instead of a report: exactly one of the two return values is
// non-nil. Rebuild with NewFuzzerFromState to continue; the finished
// campaign's results are byte-identical (modulo wall-clock fields) to an
// uninterrupted run.
func (f *Fuzzer) RunContext(ctx context.Context) (*Report, *EngineState) {
	if f.started {
		panic("core: Fuzzer.Run called twice (a Fuzzer executes at most one campaign; build a fresh one)")
	}
	f.started = true
	f.start = time.Now() //dvz:wallclock Report.Duration is measurement-only and documented as excluded from byte-identity
	n := f.opts.Iterations
	mergeEvery := f.opts.MergeEvery
	numShards := f.opts.Shards
	workers := f.opts.Workers
	if workers > numShards {
		workers = numShards
	}

	for lo, epoch := f.startIter, f.startIter/mergeEvery; lo < n; lo, epoch = lo+mergeEvery, epoch+1 {
		if ctx.Err() != nil {
			return nil, f.snapshot(lo)
		}
		hi := lo + mergeEvery
		if hi > n {
			hi = n
		}
		// Epoch start: every shard re-seeds its generator from (campaign
		// seed, shard id, epoch) and snapshots the merged corpus. The full
		// slice expression clamps capacity so shard appends reallocate
		// instead of aliasing siblings.
		snap := f.corpus[:len(f.corpus):len(f.corpus)]
		for _, s := range f.shards {
			if s.gen == nil {
				s.gen = gen.NewEpochShard(f.opts.Seed, s.id, epoch)
				s.gen.SetScenarios(f.families)
			} else {
				s.gen.Reseed(gen.EpochShardSeed(f.opts.Seed, s.id, epoch))
			}
			s.corpus = snap
			s.newSeeds = s.newSeeds[:0]
			s.cov = f.coverage.NewDelta()
			s.findings = s.findings[:0]
			s.deadSinks = 0
			s.harvest = s.harvest[:0]
		}

		// Workers drain whole shards; shard state stays single-owner and the
		// global coverage/corpus are read-only until the barrier.
		var wg sync.WaitGroup
		work := make(chan *shard)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range work {
					// First iteration in [lo, hi) congruent to s.id mod Shards.
					first := lo - lo%numShards + s.id
					if first < lo {
						first += numShards
					}
					for i := first; i < hi; i += numShards {
						f.iters[i] = s.runIteration(i)
					}
				}
			}()
		}
		for _, s := range f.shards {
			work <- s
		}
		close(work)
		wg.Wait()

		// Barrier: merge in fixed shard order.
		var epochFindings []Finding
		var epochHarvest []HarvestedSeed
		for _, s := range f.shards {
			f.coverage.Absorb(s.cov)
			f.corpus = append(f.corpus, s.newSeeds...)
			epochFindings = append(epochFindings, s.findings...)
			epochHarvest = append(epochHarvest, s.harvest...)
			f.deadSinks += s.deadSinks
		}
		if len(f.corpus) > corpusCap {
			f.corpus = f.corpus[len(f.corpus)-corpusCap:]
		}
		// At most one finding per iteration, so iteration order is total.
		sort.Slice(epochFindings, func(i, j int) bool {
			return epochFindings[i].Iteration < epochFindings[j].Iteration
		})
		// At most one harvest record per iteration, for the same reason.
		sort.Slice(epochHarvest, func(i, j int) bool {
			return epochHarvest[i].Iteration < epochHarvest[j].Iteration
		})
		f.findings = append(f.findings, epochFindings...)
		merged := f.coverage.Count()
		f.marks = append(f.marks, EpochMark{Count: merged})

		// Adaptive scenario scheduling: fold the epoch's per-family yield
		// into the cumulative stats and the scheduler weights. This happens
		// before snapshots and events, so both observe the post-update state
		// the next epoch will sample from.
		f.sched.Update(f.fold(lo, hi))

		if f.opts.OnBarrier != nil {
			f.opts.OnBarrier(&Barrier{
				Epoch:     epoch,
				Done:      hi,
				Total:     n,
				Coverage:  merged,
				Findings:  epochFindings,
				Scenarios: f.scenarioStats(),
				Harvest:   epochHarvest,
				snapshot:  func() *EngineState { return f.snapshot(hi) },
			})
		}
	}

	return f.finalize(), nil
}

// elapsed is the campaign's wall time so far: the segments before this run
// plus this run's. Snapshots carry it and the report's Duration is its
// final value.
func (f *Fuzzer) elapsed() time.Duration {
	return f.elapsedBefore + time.Since(f.start) //dvz:wallclock Report.Duration is measurement-only and documented as excluded from byte-identity
}

// finalize reconciles iteration statistics into the campaign report.
func (f *Fuzzer) finalize() *Report {
	rep := &Report{Options: f.opts}
	n := f.opts.Iterations

	// Reconcile the coverage history: shard-local NewPoints can overcount
	// (cross-shard duplicates within an epoch), so the running sum is
	// clamped to — and pinned at every barrier to — the merged global count
	// recorded when that epoch's deltas were absorbed.
	cum := 0
	epoch := 0
	for i := 0; i < n; i++ {
		cum += f.iters[i].NewPoints
		if epoch < len(f.marks) {
			if i+1 == min((epoch+1)*f.opts.MergeEvery, n) {
				// Exact at the barrier, whatever the shard-local sums said.
				cum = f.marks[epoch].Count
				epoch++
			} else if cum > f.marks[epoch].Count {
				cum = f.marks[epoch].Count
			}
		}
		f.iters[i].Coverage = cum
		rep.Sims += f.iters[i].Sims
	}
	rep.Findings = append(rep.Findings, f.findings...)
	sort.Slice(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Iteration < rep.Findings[j].Iteration
	})
	rep.DeadSinks = f.deadSinks
	rep.Iters = f.iters
	rep.Scenarios = f.scenarioStats()
	rep.Coverage = f.coverage.Count()
	rep.Duration = f.elapsed()
	return rep
}
