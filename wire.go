package dejavuzz

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dejavuzz/internal/core"
)

// Options is the declarative, JSON-serialisable form of a campaign
// configuration — the wire format dvz-server's create-campaign endpoint
// accepts, and the bridge between external clients and the functional
// options New takes. The zero value selects the target's defaults for
// everything. Each field's tag is its wire key; omitempty elides defaults,
// so a marshalled default configuration is `{}`.
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
// string means Derived. Seed is the only signed knob: a negative
// iterations, workers, shards, merge_every, max_cycles or secret_retries
// is refused, naming the key, both when decoding and by Functional.
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
	// engine-side functional lowering — a corpus store must resolve it —
	// which is why Functional ignores it; offline embedders use
	// WithWarmStart directly.
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

// Functional lowers the wire options onto the equivalent functional-option
// list (everything left at its default contributes nothing). It errors on
// the options validate refuses; target validation happens in New.
func (o Options) Functional() ([]Option, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	var opts []Option
	if o.SeedSet || o.Seed != 0 {
		opts = append(opts, WithSeed(o.Seed))
	}
	if o.IterationsSet || o.Iterations != 0 {
		opts = append(opts, WithIterations(o.Iterations))
	}
	if o.Workers > 0 {
		opts = append(opts, WithWorkers(o.Workers))
	}
	if o.Shards > 0 {
		opts = append(opts, WithShards(o.Shards))
	}
	if o.MergeEvery > 0 {
		opts = append(opts, WithMergeEvery(o.MergeEvery))
	}
	if o.MaxCycles > 0 {
		opts = append(opts, WithMaxCycles(o.MaxCycles))
	}
	if o.SecretRetries > 0 {
		opts = append(opts, WithSecretRetries(o.SecretRetries))
	}
	if o.Variant == VariantNameRandom {
		opts = append(opts, WithVariant(RandomTraining))
	}
	if len(o.Scenarios) > 0 {
		opts = append(opts, WithScenarios(o.Scenarios...))
	}
	if o.NoCoverageFeedback {
		opts = append(opts, WithCoverageFeedback(false))
	}
	if o.NoLiveness {
		opts = append(opts, WithLiveness(false))
	}
	if o.NoReduction {
		opts = append(opts, WithReduction(false))
	}
	if o.Bugless {
		opts = append(opts, WithInjectedBugs(false))
	}
	return opts, nil
}

// Campaign builds the campaign the options describe, with any extra
// functional options (e.g. WithCheckpointFile, which has no wire form —
// servers own their checkpoint paths) applied on top.
func (o Options) Campaign(extra ...Option) (*Campaign, error) {
	opts, err := o.Functional()
	if err != nil {
		return nil, err
	}
	return New(o.EffectiveTarget(), append(opts, extra...)...)
}
