package dejavuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

// harvestWarmStart runs a donor session and folds its epoch harvests into a
// WarmStart set — the same derivation dvz-server's corpus store performs,
// done inline so the root-level tests need no server.
func harvestWarmStart(t *testing.T) WarmStart {
	t.Helper()
	c, err := New("boom", WithSeed(7), WithIterations(32), WithMergeEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	session, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var seeds []Seed
	agg := map[string]*FamilyPrior{}
	for ev := range session.Events() {
		if ev.Kind != EventEpoch {
			continue
		}
		for _, h := range ev.Harvest {
			seeds = append(seeds, h.Seed)
			name := gen.ScenarioName(h.Seed)
			p := agg[name]
			if p == nil {
				p = &FamilyPrior{Name: name}
				agg[name] = p
			}
			p.Picks++
			p.Points += h.NewPoints
			if h.Finding {
				p.Findings++
			}
		}
	}
	if _, err := session.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("donor session harvested nothing; warm-start test is vacuous")
	}
	if len(seeds) > 8 {
		seeds = seeds[:8]
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	prior := make([]FamilyPrior, 0, len(names))
	for _, n := range names {
		prior = append(prior, *agg[n])
	}
	return WarmStart{Snapshot: "cs-1122334455667788", Seeds: seeds, Prior: prior}
}

// TestWarmStartDeterministicAcrossWorkers: a warm-started campaign built
// through the public options API yields identical reports at any worker
// count, and the warm set genuinely changes the campaign versus a cold run
// of the same seed.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	ws := harvestWarmStart(t)
	mk := func(workers int, warm bool) *Report {
		opts := []Option{WithSeed(43), WithIterations(48), WithMergeEvery(8), WithWorkers(workers)}
		if warm {
			opts = append(opts, WithWarmStart(ws))
		}
		c, err := New("boom", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run()
	}
	// reportFingerprint keeps Report.Options, which legitimately differs in
	// Workers here; results-only comparison zeroes the whole options block
	// (Workers is the one knob that must not affect anything else).
	results := func(rep *Report) []byte {
		r := *rep
		r.Duration = 0
		r.Options = core.Options{}
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := mk(1, true)
	if !bytes.Equal(results(ref), results(mk(8, true))) {
		t.Error("warm-started report diverges between Workers=1 and Workers=8")
	}
	if bytes.Equal(results(ref), results(mk(1, false))) {
		t.Error("warm-started report identical to cold run; warm seeds had no effect")
	}
}

// TestWarmStartSessionCancelResumeDeterministic: a warm-started session
// cancelled at a barrier resumes byte-identically from its checkpoint, and
// resuming the checkpoint under a different corpus snapshot fails with an
// option-mismatch error naming corpus_snapshot.
func TestWarmStartSessionCancelResumeDeterministic(t *testing.T) {
	ws := harvestWarmStart(t)
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	mk := func(extra ...Option) *Campaign {
		opts := append([]Option{
			WithSeed(43), WithIterations(48), WithMergeEvery(8), WithWorkers(2), WithWarmStart(ws),
		}, extra...)
		c, err := New("boom", opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	uninterrupted := mk().Run()

	ck := midCampaignCheckpoint(t, mk(), 16)
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := mk().Resume(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	for range resumed.Events() {
	}
	rep, err := resumed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportFingerprint(t, uninterrupted), reportFingerprint(t, rep)) {
		t.Error("warm cancel+resume report differs from uninterrupted run")
	}

	// The checkpoint pins the snapshot ID: a campaign resolved against a
	// different (e.g. since-grown) corpus snapshot must be refused, and the
	// error must name the drifted option so the operator knows why.
	drifted := ws
	drifted.Snapshot = "cs-8877665544332211"
	if _, err := mk(WithWarmStart(drifted)).Resume(context.Background(), loaded); err == nil {
		t.Error("resume accepted a checkpoint under a different corpus snapshot")
	} else if !strings.Contains(err.Error(), "corpus_snapshot") {
		t.Errorf("snapshot-mismatch error does not name corpus_snapshot: %v", err)
	}
}

// TestNewRejectsWarmSeedOutsideScenarios: warm seeds and prior rows must
// belong to the campaign's enabled scenario set.
func TestNewRejectsWarmSeedOutsideScenarios(t *testing.T) {
	fams := Scenarios()
	if len(fams) < 2 {
		t.Fatal("need at least two registered families")
	}
	seed := Seed{Scenario: fams[0], TriggerOff: 70, WindowLen: 5, EncodeOps: 1}
	outside := WarmStart{
		Snapshot: "cs-0000000000000001",
		Seeds:    []Seed{seed},
	}
	only := func(fam string) Options { return Options{Target: "boom", Scenarios: []string{fam}} }
	if _, err := only(fams[1]).Campaign(WithWarmStart(outside)); err == nil {
		t.Error("Campaign accepted a warm seed from a family outside the campaign's scenario set")
	}
	if _, err := only(fams[0]).Campaign(WithWarmStart(outside)); err != nil {
		t.Errorf("Campaign rejected a warm seed from an enabled family: %v", err)
	}
	badPrior := WarmStart{
		Snapshot: "cs-0000000000000002",
		Prior:    []FamilyPrior{{Name: "warp-drive"}},
	}
	if _, err := New("boom", WithWarmStart(badPrior)); err == nil {
		t.Error("New accepted a frontier prior for an unregistered family")
	}
	// A malformed warm seed is refused by name, not left to panic a shard.
	seed.WindowLen = -4095
	malformed := WarmStart{Snapshot: "cs-0000000000000003", Seeds: []Seed{seed}}
	if _, err := only(fams[0]).Campaign(WithWarmStart(malformed)); err == nil ||
		!strings.Contains(err.Error(), "WindowLen") {
		t.Errorf("Campaign accepted a warm seed with a negative WindowLen, or did not name the field: %v", err)
	}
}
