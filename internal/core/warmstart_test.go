package core

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
)

// harvestWarmSet runs a short donor campaign and turns its barrier harvest
// into a warm-start configuration (seed set plus frontier prior) — the same
// derivation dvz-server's corpus store performs, done inline so the engine
// tests need no store.
func harvestWarmSet(t *testing.T) ([]gen.Seed, []scenario.Prior) {
	t.Helper()
	opts := campaignOpts(1, 32)
	var harvested []HarvestedSeed
	opts.OnBarrier = func(b *Barrier) { harvested = append(harvested, b.Harvest...) }
	NewFuzzer(opts).Run()
	if len(harvested) == 0 {
		t.Fatal("donor campaign harvested nothing; warm-start test is vacuous")
	}
	if len(harvested) > 8 {
		harvested = harvested[:8]
	}
	seeds := make([]gen.Seed, 0, len(harvested))
	agg := map[string]*scenario.Prior{}
	for _, h := range harvested {
		seeds = append(seeds, h.Seed)
		name := gen.ScenarioName(h.Seed)
		p := agg[name]
		if p == nil {
			p = &scenario.Prior{Name: name}
			agg[name] = p
		}
		p.Picks++
		p.Points += h.NewPoints
		if h.Finding {
			p.Findings++
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	prior := make([]scenario.Prior, 0, len(names))
	for _, n := range names {
		prior = append(prior, *agg[n])
	}
	return seeds, prior
}

// warmOpts is campaignOpts plus a warm-start set under a fresh campaign
// seed (so the warm seeds genuinely come from a different campaign).
func warmOpts(workers, iterations int, seeds []gen.Seed, prior []scenario.Prior) Options {
	opts := campaignOpts(workers, iterations)
	opts.Seed = 43
	opts.CorpusSnapshot = "cs-0123456789abcdef"
	opts.WarmSeeds = seeds
	opts.FrontierPrior = prior
	return opts
}

// TestBarrierHarvestDeterministic pins the harvest surface warm-start is
// built on: the per-barrier harvest sequence is identical across worker
// counts, ordered by iteration, and every entry is a keeper or a finding.
func TestBarrierHarvestDeterministic(t *testing.T) {
	collect := func(workers int) [][]HarvestedSeed {
		opts := campaignOpts(workers, 48)
		var out [][]HarvestedSeed
		opts.OnBarrier = func(b *Barrier) {
			out = append(out, append([]HarvestedSeed(nil), b.Harvest...))
		}
		NewFuzzer(opts).Run()
		return out
	}
	ref := collect(1)
	total := 0
	for _, batch := range ref {
		for i, h := range batch {
			if i > 0 && batch[i-1].Iteration > h.Iteration {
				t.Fatalf("harvest batch not in iteration order: %d after %d", h.Iteration, batch[i-1].Iteration)
			}
			if h.NewPoints <= 0 && !h.Finding {
				t.Fatalf("harvested seed at iteration %d has no evidence", h.Iteration)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no seeds harvested; harvest determinism check is vacuous")
	}
	if got := collect(8); !reflect.DeepEqual(ref, got) {
		t.Error("harvest sequence diverges between Workers=1 and Workers=8")
	}
}

// TestWarmStartDeterministicAcrossWorkers extends the Workers-invariance
// guarantee to warm-started campaigns: the warm seed replay and frontier
// prior must reshape the streams identically at any worker count.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	seeds, prior := harvestWarmSet(t)
	ref := NewFuzzer(warmOpts(1, 48, seeds, prior)).Run()
	if ref.Coverage == 0 {
		t.Fatal("warm campaign collected no coverage")
	}
	for _, workers := range []int{2, 8} {
		rep := NewFuzzer(warmOpts(workers, 48, seeds, prior)).Run()
		if !reflect.DeepEqual(fingerprint(ref), fingerprint(rep)) {
			t.Errorf("Workers=%d: warm-started report diverges from Workers=1", workers)
		}
	}

	// The warm set must actually matter: the same campaign seed without it
	// runs different streams (warm-start is determinism-relevant, which is
	// why it lives in the checkpointed options).
	cold := campaignOpts(1, 48)
	cold.Seed = 43
	if reflect.DeepEqual(fingerprint(ref), fingerprint(NewFuzzer(cold).Run())) {
		t.Error("warm-started report identical to cold run; warm seeds had no effect")
	}
}

// TestWarmStartCancelResumeDeterministic checks a warm-started campaign
// cancelled at a barrier resumes byte-identically — including when the
// cancellation lands while warm replay is still in flight — and that
// resuming under a different warm-start fails with an option-mismatch
// error naming the drifted field.
func TestWarmStartCancelResumeDeterministic(t *testing.T) {
	seeds, prior := harvestWarmSet(t)
	ref := NewFuzzer(warmOpts(1, 48, seeds, prior)).Run()

	for _, stopAt := range []int{16, 32} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := warmOpts(4, 48, seeds, prior)
		opts.OnBarrier = func(b *Barrier) {
			if b.Done == stopAt {
				cancel()
			}
		}
		rep, state := NewFuzzer(opts).RunContext(ctx)
		cancel()
		if rep != nil || state == nil {
			t.Fatalf("stopAt=%d: campaign did not stop at the barrier", stopAt)
		}
		data, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		var restored EngineState
		if err := json.Unmarshal(data, &restored); err != nil {
			t.Fatal(err)
		}
		f, err := NewFuzzerFromState(&restored, warmOpts(8, 48, seeds, prior))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fingerprint(ref), fingerprint(f.Run())) {
			t.Errorf("stopAt=%d: resumed warm report diverges from uninterrupted run", stopAt)
		}

		// Resume under a different corpus snapshot: refused, naming the field.
		drifted := warmOpts(8, 48, seeds, prior)
		drifted.CorpusSnapshot = "cs-fedcba9876543210"
		if _, err := NewFuzzerFromState(&restored, drifted); err == nil {
			t.Errorf("stopAt=%d: accepted resume under a different corpus snapshot", stopAt)
		} else if !strings.Contains(err.Error(), "corpus_snapshot") {
			t.Errorf("stopAt=%d: snapshot-mismatch error does not name corpus_snapshot: %v", stopAt, err)
		}

		// Same for a drifted warm seed set.
		fewer := warmOpts(8, 48, seeds[:len(seeds)-1], prior)
		if _, err := NewFuzzerFromState(&restored, fewer); err == nil {
			t.Errorf("stopAt=%d: accepted resume under a different warm seed set", stopAt)
		} else if !strings.Contains(err.Error(), "warm_seeds") {
			t.Errorf("stopAt=%d: seed-mismatch error does not name warm_seeds: %v", stopAt, err)
		}
	}
}

// TestValidateWarmStart checks the family-membership validation both ways,
// and that a malformed warm seed is refused by field.
func TestValidateWarmStart(t *testing.T) {
	fams := scenario.Names()
	if len(fams) < 2 {
		t.Fatal("need at least two registered families")
	}
	goodSeed := gen.Seed{Scenario: fams[0], TriggerOff: 70, WindowLen: 5, EncodeOps: 1}
	if err := ValidateWarmStart([]gen.Seed{goodSeed}, []scenario.Prior{{Name: fams[1]}}, fams); err != nil {
		t.Fatalf("rejected a valid warm-start set: %v", err)
	}
	// A warm seed whose family is outside the campaign's enabled set.
	if err := ValidateWarmStart([]gen.Seed{goodSeed}, nil, fams[1:2]); err == nil {
		t.Error("accepted a warm seed from a disabled family")
	}
	// A prior row for a family the campaign does not run.
	if err := ValidateWarmStart(nil, []scenario.Prior{{Name: "warp-drive"}}, fams); err == nil {
		t.Error("accepted a frontier prior for an unregistered family")
	}
	// A warm seed the generator could never have drawn.
	badSeed := goodSeed
	badSeed.WindowLen = -4095
	if err := ValidateWarmStart([]gen.Seed{badSeed}, nil, fams); err == nil || !strings.Contains(err.Error(), "WindowLen") {
		t.Errorf("malformed warm seed: err=%v, want a refusal naming WindowLen", err)
	}
}
