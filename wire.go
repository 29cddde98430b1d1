package dejavuzz

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
)

// Options is the declarative, JSON-serialisable form of a campaign
// configuration — the wire format dvz-server's create-campaign endpoint
// accepts, and what Campaign lowers onto the engine (New is
// Options{Target: target}.Campaign). The zero value selects the target's
// defaults for everything. Each field's tag is its wire key; omitempty
// elides defaults, so a marshalled default configuration is `{}`.
//
// Two fields need explicit-zero markers: seed 0 is a valid seed and 0
// iterations is a valid dry run, but both are also the Go zero value. The
// JSON encoding resolves the ambiguity by key presence — MarshalJSON emits
// "seed"/"iterations" whenever they are explicit (set marker or non-zero
// value) and omits them otherwise, and UnmarshalJSON sets the markers from
// key presence — so `{"seed":0}` and `{}` round-trip to different
// campaigns (seed zero vs the default seed 1).
//
// The remaining knobs have no zero ambiguity on the wire: numeric fields
// treat 0 as "use the default" (none accepts an explicit zero), the
// boolean toggles are phrased so false is the default, and Variant's empty
// string means "derived". Seed is the only signed knob: a negative
// iterations, workers, shards, merge_every, max_cycles or secret_retries
// is refused, naming the key, both when decoding and by Campaign.
type Options struct {
	// Target names the registered design under test; empty means
	// DefaultTarget.
	Target string `json:"target,omitempty"`
	// Seed is the campaign RNG seed; see SeedSet for the zero convention.
	Seed int64 `json:"-"`
	// SeedSet marks Seed as explicit, making seed 0 selectable.
	SeedSet bool `json:"-"`
	// Iterations is the campaign length; see IterationsSet.
	Iterations int `json:"-"`
	// IterationsSet marks Iterations as explicit, making a 0-iteration dry
	// run selectable.
	IterationsSet bool `json:"-"`
	// Workers, Shards, MergeEvery, MaxCycles and SecretRetries override the
	// engine defaults when positive.
	Workers       int `json:"workers,omitempty"`
	Shards        int `json:"shards,omitempty"`
	MergeEvery    int `json:"merge_every,omitempty"`
	MaxCycles     int `json:"max_cycles,omitempty"`
	SecretRetries int `json:"secret_retries,omitempty"`
	// Variant is "derived" (DejaVuzz, the default) or "random" (the
	// DejaVuzz* ablation).
	Variant string `json:"variant,omitempty"`
	// Scenarios restricts the campaign to the named scenario families;
	// empty means every family. Names are validated at decode
	// time, so a misspelled family is rejected at the API boundary instead
	// of silently running a different campaign.
	Scenarios []string `json:"scenarios,omitempty"`
	// The ablation toggles, phrased so the zero value is the full fuzzer.
	NoCoverageFeedback bool `json:"no_coverage_feedback,omitempty"`
	NoLiveness         bool `json:"no_liveness,omitempty"`
	NoReduction        bool `json:"no_reduction,omitempty"`
	Bugless            bool `json:"bugless,omitempty"`
	// WarmStart asks dvz-server to seed the campaign from its persistent
	// corpus: the server resolves a deterministic warm-start set (seeds +
	// scheduler prior) for the campaign's target and records the resolution
	// with the campaign, so restarts and resumes reuse it. The flag has no
	// engine-side lowering — a corpus store must resolve it — which is why
	// Campaign ignores it; offline embedders use WithWarmStart directly.
	WarmStart bool `json:"warm_start,omitempty"`
}

// Variant wire names.
const (
	VariantNameDerived = "derived"
	VariantNameRandom  = "random"
)

// optionFields is Options without its methods, so the codec can encode the
// tagged fields with encoding/json without recursing into itself.
type optionFields Options

// jsonOptions is the JSON shape of Options: the tagged fields, then the
// two explicit-zero fields as pointers, whose nil-ness is key presence.
type jsonOptions struct {
	optionFields
	Seed       *int64 `json:"seed,omitempty"`
	Iterations *int   `json:"iterations,omitempty"`
}

// MarshalJSON encodes the options in wire form. "seed" and "iterations"
// appear exactly when explicit (marker set or value non-zero); all other
// fields are omitted at their default values.
func (o Options) MarshalJSON() ([]byte, error) {
	w := jsonOptions{optionFields: optionFields(o)}
	if o.SeedSet || o.Seed != 0 {
		w.Seed = &o.Seed
	}
	if o.IterationsSet || o.Iterations != 0 {
		w.Iterations = &o.Iterations
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes wire-form options, deriving the explicit-zero
// markers from key presence and validating the result (see validate).
// Unknown keys are rejected: a misspelled option silently decoding to a
// default-value campaign is exactly the failure mode a fuzzing service
// must not have.
func (o *Options) UnmarshalJSON(data []byte) error {
	var w jsonOptions
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	opts := Options(w.optionFields)
	if w.Seed != nil {
		opts.Seed, opts.SeedSet = *w.Seed, true
	}
	if w.Iterations != nil {
		opts.Iterations, opts.IterationsSet = *w.Iterations, true
	}
	if err := opts.validate(); err != nil {
		return err
	}
	*o = opts
	return nil
}

// validate refuses options no campaign can run: an unknown variant or
// scenario family, or a negative numeric knob (named by its wire key).
func (o Options) validate() error {
	for _, knob := range []struct {
		key string
		val int
	}{
		{"iterations", o.Iterations}, {"workers", o.Workers}, {"shards", o.Shards},
		{"merge_every", o.MergeEvery}, {"max_cycles", o.MaxCycles}, {"secret_retries", o.SecretRetries},
	} {
		if knob.val < 0 {
			return fmt.Errorf("dejavuzz: %s is %d; want a non-negative value", knob.key, knob.val)
		}
	}
	switch o.Variant {
	case "", VariantNameDerived, VariantNameRandom:
	default:
		return fmt.Errorf("dejavuzz: unknown variant %q (want %q or %q)",
			o.Variant, VariantNameDerived, VariantNameRandom)
	}
	if err := core.ValidateScenarios(o.Scenarios); err != nil {
		return fmt.Errorf("dejavuzz: %w", err)
	}
	return nil
}

// EffectiveTarget returns the target name the options select (DefaultTarget
// when unset).
func (o Options) EffectiveTarget() string {
	if o.Target == "" {
		return DefaultTarget
	}
	return o.Target
}

// EffectiveIterations returns the campaign length the options select (the
// engine default, core.DefaultIterations, when unset).
func (o Options) EffectiveIterations() int {
	if o.IterationsSet || o.Iterations != 0 {
		return o.Iterations
	}
	return core.DefaultIterations
}

// EffectiveSeed returns the campaign seed the options select (the engine
// default, core.DefaultSeed, when unset).
func (o Options) EffectiveSeed() int64 {
	if o.SeedSet || o.Seed != 0 {
		return o.Seed
	}
	return core.DefaultSeed
}

// Campaign builds the campaign the options describe. The extra functional
// options apply on top: shorthands for wire fields, plus WithWarmStart and
// WithCheckpointFile, which have no wire form (servers own their
// checkpoint paths and resolve warm-start sets from their corpus). It
// refuses what validate refuses, lowers the wire fields onto the target's
// engine defaults, and checks the warm-start set against the enabled
// families and the checkpoint path's directory.
func (o Options) Campaign(extra ...Option) (*Campaign, error) {
	s := settings{wire: o}
	for _, opt := range extra {
		opt(&s)
	}
	if err := s.wire.validate(); err != nil {
		return nil, err
	}
	t, err := core.LookupTarget(s.wire.EffectiveTarget())
	if err != nil {
		return nil, err
	}
	opts := s.wire.lower(t)
	opts.CorpusSnapshot = s.warm.Snapshot
	opts.WarmSeeds = append([]Seed(nil), s.warm.Seeds...)
	opts.FrontierPrior = append([]FamilyPrior(nil), s.warm.Prior...)
	fams := opts.Scenarios
	if len(fams) == 0 {
		fams = scenario.Names()
	}
	if err := core.ValidateWarmStart(opts.WarmSeeds, opts.FrontierPrior, fams); err != nil {
		return nil, fmt.Errorf("dejavuzz: %w", err)
	}
	if s.ckptPath != "" {
		// Fail the dominant misconfiguration (missing/unwritable checkpoint
		// directory) here, where there is an error path — autosave failures
		// during a run are only visible as CheckpointSaved events.
		if err := atomicfile.ProbeDir(s.ckptPath); err != nil {
			return nil, fmt.Errorf("dejavuzz: checkpoint path not writable: %w", err)
		}
	}
	return &Campaign{target: t, opts: opts, ckptPath: s.ckptPath}, nil
}

// lower maps the wire fields onto the target's engine defaults; a field at
// its zero value keeps the default. It is the one place a campaign's
// configuration becomes engine options.
func (o Options) lower(t core.Target) core.Options {
	opts := core.DefaultOptionsFor(t)
	opts.Seed = o.EffectiveSeed()
	opts.Iterations = o.EffectiveIterations()
	for _, knob := range []struct {
		dst *int
		val int
	}{
		{&opts.Workers, o.Workers}, {&opts.Shards, o.Shards}, {&opts.MergeEvery, o.MergeEvery},
		{&opts.MaxCycles, o.MaxCycles}, {&opts.SecretRetries, o.SecretRetries},
	} {
		if knob.val > 0 {
			*knob.dst = knob.val
		}
	}
	if o.Variant == VariantNameRandom {
		opts.Variant = gen.VariantRandom
	}
	opts.Scenarios = append([]string(nil), o.Scenarios...)
	opts.UseCoverageFeedback = !o.NoCoverageFeedback
	opts.UseLiveness = !o.NoLiveness
	opts.UseReduction = !o.NoReduction
	opts.Bugless = o.Bugless
	return opts
}
