package dejavuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavuzz/internal/core"
)

// midCampaignCheckpoint deterministically produces the checkpoint a session
// of c yields when cancelled at the barrier after stopDone iterations: the
// engine's cancellation lands at the merge barrier, so cancelling from
// within the barrier hook pins the stop point exactly.
func midCampaignCheckpoint(t testing.TB, c *Campaign, stopDone int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := c.opts
	opts.OnBarrier = func(b *core.Barrier) {
		if b.Done == stopDone {
			cancel()
		}
	}
	rep, state := core.NewFuzzer(opts).RunContext(ctx)
	if rep != nil || state == nil {
		t.Fatalf("campaign did not stop at iteration %d", stopDone)
	}
	if state.NextIter != stopDone {
		t.Fatalf("stopped at %d, want %d", state.NextIter, stopDone)
	}
	return &Checkpoint{state: state}
}

// reportFingerprint canonicalises a report for byte-identity comparison:
// the wall-clock Duration is zeroed and everything else is serialised.
func reportFingerprint(t *testing.T, rep *Report) []byte {
	t.Helper()
	r := *rep
	r.Duration = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewRejectsUnknownScenario(t *testing.T) {
	if _, err := (Options{Target: "boom", Scenarios: []string{"warp-drive"}}).Campaign(); err == nil {
		t.Fatal("Campaign accepted an unregistered scenario family")
	}
	if _, err := (Options{Target: "boom", Scenarios: []string{"cache-occupancy"}}).Campaign(); err != nil {
		t.Fatalf("Campaign rejected a registered family: %v", err)
	}
}

// TestNewUnknownTarget: New names its target, so an unregistered or empty
// name is refused even though empty wire options select DefaultTarget.
func TestNewUnknownTarget(t *testing.T) {
	for _, name := range []string{"not-a-target", ""} {
		if _, err := New(name); err == nil {
			t.Fatalf("New(%q) built a campaign; want an unknown-target error", name)
		}
	}
}

func TestTargetsRegistry(t *testing.T) {
	names := Targets()
	if len(names) < 3 {
		t.Fatalf("Targets() = %v, want at least boom, xiangshan, isasim", names)
	}
	for _, want := range []string{"boom", "xiangshan", "isasim"} {
		tgt, err := LookupTarget(want)
		if err != nil {
			t.Fatalf("built-in target %q not registered: %v", want, err)
		}
		if tgt.Description() == "" {
			t.Errorf("target %q has no description", want)
		}
	}
}

func TestCampaignRun(t *testing.T) {
	c, err := New("boom", WithSeed(5), WithIterations(10))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()
	if len(rep.Iters) != 10 {
		t.Fatalf("iterations = %d, want 10", len(rep.Iters))
	}
}

func TestOptionsExplicitZeros(t *testing.T) {
	// The functional-options API has no zero-value ambiguity: seed 0 and an
	// empty dry run are directly expressible.
	c, err := New("boom", WithSeed(0), WithIterations(0))
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run()
	if len(rep.Iters) != 0 {
		t.Fatalf("dry run executed %d iterations", len(rep.Iters))
	}
	if rep.Options.Seed != 0 {
		t.Fatalf("seed = %d, want explicit 0", rep.Options.Seed)
	}
}

func TestSessionStreamsAndMatchesBlockingRun(t *testing.T) {
	mk := func() *Campaign {
		c, err := New("boom", WithSeed(9), WithIterations(32), WithMergeEvery(8), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	blocking := mk().Run()

	session, err := mk().Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	epochs, findings := 0, 0
	var last Event
	for ev := range session.Events() {
		switch ev.Kind {
		case EventEpoch:
			epochs++
		case EventFinding:
			findings++
			if ev.Finding == nil {
				t.Fatal("finding event without finding")
			}
		}
		last = ev
	}
	if epochs != 4 {
		t.Errorf("saw %d epoch events, want 4", epochs)
	}
	if last.Kind != EventDone || last.Report == nil {
		t.Fatalf("final event = %+v, want completed EventDone", last)
	}
	rep, err := session.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if findings != len(rep.Findings) {
		t.Errorf("streamed %d findings, report has %d", findings, len(rep.Findings))
	}
	if !bytes.Equal(reportFingerprint(t, blocking), reportFingerprint(t, rep)) {
		t.Error("streaming session report differs from blocking Run")
	}
}

// TestSessionCancelResumeDeterministic is the session-level cancellation
// determinism test: a campaign cancelled at a barrier and resumed from its
// checkpoint must produce a byte-identical report (modulo wall-clock
// fields) to an uninterrupted blocking Run with the same options.
func TestSessionCancelResumeDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.ckpt")
	mk := func() *Campaign {
		c, err := New("boom", WithSeed(42), WithIterations(48), WithMergeEvery(8), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	uninterrupted := mk().Run()

	// Cancel deterministically at the barrier after 16 of 48 iterations and
	// round-trip the checkpoint through its JSON file.
	ck := midCampaignCheckpoint(t, mk(), 16)
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if done, total := loaded.Progress(); done != 16 || total != 48 {
		t.Fatalf("checkpoint progress %d/%d, want 16/48", done, total)
	}
	if loaded.Target() != "boom" {
		t.Fatalf("checkpoint target %q", loaded.Target())
	}

	resumed, err := mk().Resume(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	for ev := range resumed.Events() {
		if ev.Kind == EventEpoch {
			epochs++
		}
	}
	if epochs != 4 { // (48-16)/8 remaining barriers
		t.Errorf("resumed session emitted %d epoch events, want 4", epochs)
	}
	rep, err := resumed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportFingerprint(t, uninterrupted), reportFingerprint(t, rep)) {
		t.Error("cancel+resume report differs from uninterrupted run")
	}
}

// TestSessionPauseFlow exercises the cooperative Pause path. Pause lands at
// the next merge barrier; if the campaign finishes first there is no
// checkpoint and the report stands — both outcomes are legitimate, and the
// test verifies whichever occurred is internally consistent.
func TestSessionPauseFlow(t *testing.T) {
	c, err := New("boom", WithSeed(42), WithIterations(96), WithMergeEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	session, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for ev := range session.Events() {
		if ev.Kind == EventEpoch {
			break
		}
	}
	ck := session.Pause()
	rep, werr := session.Wait()
	if ck == nil {
		// Completed before the barrier: Wait must deliver the full report.
		if werr != nil || rep == nil || len(rep.Iters) != 96 {
			t.Fatalf("completed session inconsistent: rep=%v err=%v", rep, werr)
		}
		return
	}
	if !errors.Is(werr, ErrInterrupted) || rep != nil {
		t.Fatalf("interrupted session inconsistent: rep=%v err=%v", rep, werr)
	}
	done, total := ck.Progress()
	if done <= 0 || done >= total || done%8 != 0 {
		t.Fatalf("checkpoint progress %d/%d not at a mid-campaign barrier", done, total)
	}
	if session.Checkpoint() != ck {
		t.Error("session.Checkpoint() disagrees with Pause result")
	}
	// The paused session resumes to completion.
	resumed, err := c.Resume(context.Background(), ck)
	if err != nil {
		t.Fatal(err)
	}
	full, err := resumed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Iters) != 96 {
		t.Fatalf("resumed campaign ran %d iterations, want 96", len(full.Iters))
	}
}

// TestSessionCheckpointAutosave pins WithCheckpointFile: every barrier
// rewrites the checkpoint file and emits a CheckpointSaved event, and the
// final file resumes into a campaign whose report matches an uninterrupted
// run.
func TestSessionCheckpointAutosave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.ckpt")
	c, err := New("isasim", WithSeed(2), WithIterations(24), WithMergeEvery(8),
		WithCheckpointFile(path))
	if err != nil {
		t.Fatal(err)
	}
	session, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	saves := 0
	for ev := range session.Events() {
		if ev.Kind == EventCheckpointSaved {
			if ev.Err != nil {
				t.Fatalf("autosave failed: %v", ev.Err)
			}
			if ev.Path != path {
				t.Fatalf("autosave path %q, want %q", ev.Path, path)
			}
			saves++
		}
	}
	if saves != 3 { // one per barrier
		t.Errorf("saw %d CheckpointSaved events, want 3", saves)
	}
	rep, err := session.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The last autosave is the final barrier; resuming it replays nothing
	// and must reproduce the completed report exactly.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.Resume(context.Background(), ck)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := resumed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportFingerprint(t, rep), reportFingerprint(t, rep2)) {
		t.Error("final-barrier checkpoint resume differs from completed report")
	}
}

func TestNewRejectsUnwritableCheckpointPath(t *testing.T) {
	_, err := New("boom", WithCheckpointFile(filepath.Join(t.TempDir(), "missing-dir", "ck.json")))
	if err == nil {
		t.Fatal("New accepted a checkpoint path in a nonexistent directory")
	}
}

// TestResumeRejectsMalformedCorpusSeed: resuming a checkpoint whose corpus
// holds a seed with a negative WindowLen must fail with an error naming
// the field; the resumed campaign would otherwise panic the shard
// goroutine that builds the seed's window.
func TestResumeRejectsMalformedCorpusSeed(t *testing.T) {
	mk := func() *Campaign {
		c, err := New("boom", WithSeed(42), WithIterations(32), WithMergeEvery(8))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := midCampaignCheckpoint(t, mk(), 16).Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	corpus, _ := doc["corpus"].([]any)
	if len(corpus) == 0 {
		t.Fatal("checkpoint has no corpus seed to corrupt")
	}
	corpus[0].(map[string]any)["WindowLen"] = -4095
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err == nil {
		_, err = mk().Resume(context.Background(), ck)
	}
	if err == nil {
		t.Fatal("resume accepted a corpus seed with a negative WindowLen")
	}
	if !strings.Contains(err.Error(), "WindowLen") {
		t.Fatalf("malformed-seed refusal does not name WindowLen: %v", err)
	}
}

func TestResumeRejectsMismatchedOptions(t *testing.T) {
	mk := func(seed int64) *Campaign {
		c, err := New("boom", WithSeed(seed), WithIterations(16), WithMergeEvery(4))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ck := midCampaignCheckpoint(t, mk(3), 4)
	if _, err := mk(4).Resume(context.Background(), ck); err == nil {
		t.Fatal("resume accepted a checkpoint from different options")
	}
	if _, err := mk(3).Resume(context.Background(), nil); err == nil {
		t.Fatal("resume accepted a nil checkpoint")
	}

	// A different -scenarios set is an option mismatch too, and the error
	// must say so by name — never silently diverge into another campaign.
	mkScn := func(fams ...string) *Campaign {
		c, err := Options{Target: "boom", Seed: 3, Iterations: 16, MergeEvery: 4, Scenarios: fams}.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ck = midCampaignCheckpoint(t, mkScn("branch-mispredict", "page-fault"), 4)
	_, err := mkScn("branch-mispredict", "nested-fault-in-branch").Resume(context.Background(), ck)
	if err == nil {
		t.Fatal("resume accepted a checkpoint from a different -scenarios set")
	}
	if !strings.Contains(err.Error(), "scenarios") {
		t.Fatalf("scenario mismatch error does not name the option: %v", err)
	}
	// Order does not matter: the set is normalized before comparison.
	if _, err := mkScn("page-fault", "branch-mispredict").Resume(context.Background(), ck); err != nil {
		t.Fatalf("reordered scenario set failed to resume: %v", err)
	}
}

func TestSessionOnISATarget(t *testing.T) {
	c, err := New("isasim", WithSeed(7), WithIterations(24), WithMergeEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	session, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range session.Events() {
	}
	rep, err := session.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage == 0 {
		t.Error("isasim target session collected no coverage")
	}
	if rep.Options.Target != "isasim" {
		t.Errorf("report target %q", rep.Options.Target)
	}
}
