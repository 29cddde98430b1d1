package dejavuzz

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dejavuzz/internal/core"
)

// coreOptions lowers wire options onto the engine options they select —
// the semantic identity JSON round-trips must preserve.
func coreOptions(t *testing.T, o Options) core.Options {
	t.Helper()
	c, err := o.Campaign()
	if err != nil {
		t.Fatalf("Campaign(%+v): %v", o, err)
	}
	return c.opts
}

// TestOptionsJSONRoundTrip drives every field shape through
// MarshalJSON/UnmarshalJSON and asserts the decoded options select exactly
// the same campaign. The explicit-zero cases are the regression guard the
// wire format exists for: `{"seed":0}` and `{}` are different campaigns,
// and a marshal that drops an explicit zero (or an unmarshal that misses
// key presence) silently swaps seed 0 / 0 iterations for the defaults.
func TestOptionsJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"zero-value", Options{}},
		{"explicit-zero-seed", Options{SeedSet: true}},
		{"explicit-zero-iterations", Options{IterationsSet: true}},
		{"explicit-zeros-both", Options{SeedSet: true, IterationsSet: true}},
		{"nonzero-seed-without-marker", Options{Seed: 42}},
		{"nonzero-iterations-without-marker", Options{Iterations: 64}},
		{"target-only", Options{Target: "isasim"}},
		{"variant-random", Options{Variant: VariantNameRandom}},
		{"scenario-filter", Options{Scenarios: []string{"cache-occupancy", "branch-mispredict"}}},
		{"all-knobs", Options{
			Target: "xiangshan", Seed: -7, SeedSet: true,
			Iterations: 256, IterationsSet: true,
			Workers: 4, Shards: 16, MergeEvery: 32, MaxCycles: 5000,
			SecretRetries: 3, Variant: VariantNameRandom,
			Scenarios:          []string{"page-fault", "stl-forward-chain"},
			NoCoverageFeedback: true, NoLiveness: true, NoReduction: true,
			Bugless: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.o)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Options
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			want := coreOptions(t, tc.o)
			if gotOpts := coreOptions(t, got); !gotOpts.EquivalentTo(want) || gotOpts.Normalized().Workers != want.Normalized().Workers {
				t.Fatalf("round trip through %s changed the campaign:\n got %+v\nwant %+v", data, gotOpts, want)
			}
			// Second trip must be a fixed point byte-for-byte.
			data2, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(data2) != string(data) {
				t.Fatalf("marshal not stable: %s then %s", data, data2)
			}
		})
	}
}

// TestOptionsJSONExplicitZeros pins the wire encoding itself: explicit
// zeros appear as keys, defaults disappear entirely.
func TestOptionsJSONExplicitZeros(t *testing.T) {
	data, err := json.Marshal(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero Options marshals as %s, want {}", data)
	}

	data, err = json.Marshal(Options{SeedSet: true, IterationsSet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"seed":0`, `"iterations":0`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("explicit zeros marshal as %s, missing %s", data, key)
		}
	}

	var got Options
	if err := json.Unmarshal([]byte(`{"seed":0,"iterations":0}`), &got); err != nil {
		t.Fatal(err)
	}
	if !got.SeedSet || !got.IterationsSet {
		t.Fatalf("key presence must set the explicit-zero markers: %+v", got)
	}
	if got.EffectiveSeed() != 0 || got.EffectiveIterations() != 0 {
		t.Fatalf("explicit zeros must win over defaults: seed=%d iters=%d",
			got.EffectiveSeed(), got.EffectiveIterations())
	}

	got = Options{}
	if err := json.Unmarshal([]byte(`{}`), &got); err != nil {
		t.Fatal(err)
	}
	if got.SeedSet || got.IterationsSet {
		t.Fatalf("absent keys must not set markers: %+v", got)
	}
	if got.EffectiveSeed() != 1 || got.EffectiveIterations() != 100 {
		t.Fatalf("defaults: seed=%d iters=%d, want 1/100", got.EffectiveSeed(), got.EffectiveIterations())
	}
}

// TestOptionsJSONBadVariant checks decode-time validation: an unknown
// variant never reaches campaign construction.
func TestOptionsJSONBadVariant(t *testing.T) {
	var o Options
	if err := json.Unmarshal([]byte(`{"variant":"quantum"}`), &o); err == nil {
		t.Fatal("unknown variant must fail to decode")
	}
}

// TestOptionsNegativeKnobs: a negative numeric knob is refused, naming its
// wire key, both when decoding and when a Go caller builds the campaign;
// it never runs as an empty or default-sized campaign. Seed is signed.
func TestOptionsNegativeKnobs(t *testing.T) {
	set := map[string]func(*Options){
		"iterations":     func(o *Options) { o.Iterations, o.IterationsSet = -5, true },
		"workers":        func(o *Options) { o.Workers = -2 },
		"shards":         func(o *Options) { o.Shards = -3 },
		"merge_every":    func(o *Options) { o.MergeEvery = -8 },
		"max_cycles":     func(o *Options) { o.MaxCycles = -1 },
		"secret_retries": func(o *Options) { o.SecretRetries = -1 },
	}
	for key, apply := range set {
		var o Options
		err := json.Unmarshal([]byte(`{"target":"isasim","`+key+`":-1}`), &o)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("decode of negative %s: err = %v, want a refusal naming the key", key, err)
		}
		o = Options{Target: "isasim"}
		apply(&o)
		if c, err := o.Campaign(); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("Campaign() with negative %s = %v, %v; want a refusal naming the key", key, c, err)
		}
	}
	var o Options
	if err := json.Unmarshal([]byte(`{"target":"isasim","seed":-3}`), &o); err != nil {
		t.Fatalf("negative seed refused: %v", err)
	}
	if c, err := o.Campaign(); err != nil || c.opts.Seed != -3 {
		t.Fatalf("negative seed campaign = %v, %v; want seed -3", c, err)
	}
}

// TestOptionsJSONBadScenario checks decode-time validation of the scenario
// filter: an unregistered family never reaches campaign construction.
func TestOptionsJSONBadScenario(t *testing.T) {
	var o Options
	if err := json.Unmarshal([]byte(`{"scenarios":["branch-mispredict","warp-drive"]}`), &o); err == nil {
		t.Fatal("unknown scenario family must fail to decode")
	}
	if err := json.Unmarshal([]byte(`{"scenarios":["cache-occupancy"]}`), &o); err != nil {
		t.Fatalf("valid scenario filter failed to decode: %v", err)
	}
}

// TestOptionsJSONBadScheduler: UCB is the only scheduling policy, so the
// wire format has no "scheduler" key. Any value, the former policy names
// included, is refused naming the key; omitting it decodes cleanly.
func TestOptionsJSONBadScheduler(t *testing.T) {
	var o Options
	for _, body := range []string{`{"scheduler":"thompson"}`, `{"scheduler":"ucb"}`, `{"scheduler":"ema"}`} {
		if err := json.Unmarshal([]byte(body), &o); err == nil {
			t.Fatalf("%s must fail to decode", body)
		} else if !strings.Contains(err.Error(), `unknown field "scheduler"`) {
			t.Fatalf("%s: refusal does not name the key: %v", body, err)
		}
	}
	if err := json.Unmarshal([]byte(`{}`), &o); err != nil {
		t.Fatalf("options without a scheduler failed to decode: %v", err)
	}
}

// TestOptionsJSONUnknownKeys: a misspelled option must fail loudly, not
// silently decode to a default-value campaign — even through the custom
// UnmarshalJSON, which outer DisallowUnknownFields decoders cannot reach.
func TestOptionsJSONUnknownKeys(t *testing.T) {
	var o Options
	if err := json.Unmarshal([]byte(`{"no_feedback":true}`), &o); err == nil {
		t.Fatal("misspelled key (no_feedback vs no_coverage_feedback) must fail to decode")
	}
	if err := json.Unmarshal([]byte(`{"seeds":[1,2]}`), &o); err == nil {
		t.Fatal("unknown key must fail to decode")
	}
}

// TestOptionsCampaignEquivalence proves the wire path and the functional-
// option path build determinism-equivalent campaigns: a campaign created
// over the wire reports exactly what the same campaign built in-process
// reports.
func TestOptionsCampaignEquivalence(t *testing.T) {
	wire := Options{Target: "isasim", Seed: 9, Iterations: 24, MergeEvery: 8}
	cw, err := wire.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := New("isasim", WithSeed(9), WithIterations(24), WithMergeEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	if !cw.opts.EquivalentTo(cf.opts) {
		t.Fatalf("wire options %+v not equivalent to functional options %+v", cw.opts, cf.opts)
	}
}

// TestOptionsJSONEveryField sets each Options field on its own to a valid
// non-zero value and round-trips it: the field must come back with its
// value and the options must select the same campaign. The field tags are
// the wire format, so this is what pins that no field is left off the
// wire. A field of a kind the switch does not handle fails the test until
// the switch learns it.
func TestOptionsJSONEveryField(t *testing.T) {
	// Valid values for fields whose kind alone does not give one.
	valid := map[string]any{
		"Target":    "isasim",
		"Variant":   VariantNameRandom,
		"Scenarios": []string{"page-fault", "cache-occupancy"},
	}
	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		t.Run(name, func(t *testing.T) {
			var o Options
			fv := reflect.ValueOf(&o).Elem().Field(i)
			switch fv.Kind() {
			case reflect.Bool:
				fv.SetBool(true)
			case reflect.Int, reflect.Int64:
				fv.SetInt(3)
			case reflect.String, reflect.Slice:
				v, ok := valid[name]
				if !ok {
					t.Fatalf("Options.%s: no valid non-zero %s value; add one to valid", name, fv.Kind())
				}
				fv.Set(reflect.ValueOf(v))
			default:
				t.Fatalf("Options.%s: unhandled kind %s; extend the switch alongside the new field", name, fv.Kind())
			}
			data, err := json.Marshal(o)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Options
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if back := reflect.ValueOf(got).Field(i).Interface(); !reflect.DeepEqual(back, fv.Interface()) {
				t.Fatalf("Options.%s = %v went through %s and came back %v", name, fv.Interface(), data, back)
			}
			want := coreOptions(t, o)
			if gotOpts := coreOptions(t, got); !gotOpts.EquivalentTo(want) || gotOpts.Normalized().Workers != want.Normalized().Workers {
				t.Fatalf("round trip through %s changed the campaign:\n got %+v\nwant %+v", data, gotOpts, want)
			}
		})
	}
}

// parentEncodings are wire encodings written before Options carried its
// own JSON tags, with the options they decode to. Registries and request
// bodies written in that form must keep decoding to the same options.
var parentEncodings = []struct {
	data string
	want Options
}{
	{`{}`, Options{}},
	{`{"seed":0,"iterations":0}`, Options{SeedSet: true, IterationsSet: true}},
	{`{"target":"xiangshan","seed":-7,"iterations":256,"workers":4,"shards":16,"merge_every":32,"max_cycles":5000,"secret_retries":3,"variant":"random","scenarios":["page-fault","stl-forward-chain"],"no_coverage_feedback":true,"no_liveness":true,"no_reduction":true,"bugless":true,"warm_start":true}`,
		Options{
			Target: "xiangshan", Seed: -7, SeedSet: true,
			Iterations: 256, IterationsSet: true,
			Workers: 4, Shards: 16, MergeEvery: 32, MaxCycles: 5000,
			SecretRetries: 3, Variant: VariantNameRandom,
			Scenarios:          []string{"page-fault", "stl-forward-chain"},
			NoCoverageFeedback: true, NoLiveness: true, NoReduction: true,
			Bugless: true, WarmStart: true,
		}},
}

// TestOptionsJSONParentEncoding decodes the recorded encodings and checks
// the options they select; re-marshalling must give the same keys and
// values (only key order may differ).
func TestOptionsJSONParentEncoding(t *testing.T) {
	for _, tc := range parentEncodings {
		var got Options
		if err := json.Unmarshal([]byte(tc.data), &got); err != nil {
			t.Fatalf("decode %s: %v", tc.data, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("decode %s:\n got %+v\nwant %+v", tc.data, got, tc.want)
		}
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var before, after map[string]any
		if err := json.Unmarshal([]byte(tc.data), &before); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(enc, &after); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("re-marshal of %s gave %s", tc.data, enc)
		}
	}
}

// FuzzOptionsJSON feeds arbitrary bytes to UnmarshalJSON. An accepted input
// must re-marshal to bytes that decode to the same Options, and building
// its campaign must return a campaign or an error, never panic.
func FuzzOptionsJSON(f *testing.F) {
	for _, s := range []string{
		`{"seed":0,"iterations":0}`,
		`{"variant":"quantum"}`,
		`{"scenarios":["branch-mispredict","warp-drive"]}`,
		`{"scenarios":["cache-occupancy"]}`,
		`{"scheduler":"thompson"}`,
		`{"no_feedback":true}`,
		`{"seeds":[1,2]}`,
		`{"target":"isasim","iterations":-5,"shards":-3,"workers":-2}`,
		`{"seed":-3}`,
	} {
		f.Add([]byte(s))
	}
	for _, tc := range parentEncodings {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o Options
		if err := o.UnmarshalJSON(data); err != nil {
			return
		}
		enc, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-marshal it: %v", data, err)
		}
		var back Options
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("accepted %q but not its re-marshal %s: %v", data, enc, err)
		}
		// An empty scenario list and an absent one both mean every family;
		// the wire omits both.
		if len(o.Scenarios) == 0 {
			o.Scenarios = nil
		}
		if !reflect.DeepEqual(back, o) {
			t.Fatalf("%q decodes to %+v, its re-marshal %s to %+v", data, o, enc, back)
		}
		if c, err := o.Campaign(); (c == nil) == (err == nil) {
			t.Fatalf("Campaign() of %q = %v, %v: want exactly one of a campaign and an error", data, c, err)
		}
	})
}
