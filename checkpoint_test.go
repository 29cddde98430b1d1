package dejavuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzCampaigns are the campaigns FuzzLoadCheckpoint resumes into, keyed
// by target, with the barrier its seed checkpoint is taken at. They are
// small so one resumed epoch stays cheap. The isasim checkpoint resumes
// into a mid-campaign pause; the boom one into the last epoch, so its
// resumed run also completes and builds the report.
var fuzzCampaigns = []struct {
	target string
	opts   []Option
	stop   int
}{
	{"isasim", []Option{WithSeed(42), WithIterations(96), WithMergeEvery(16)}, 32},
	{"boom", []Option{WithSeed(42), WithIterations(48), WithMergeEvery(8)}, 40},
}

func mustCampaign(tb testing.TB, target string, opts ...Option) *Campaign {
	tb.Helper()
	c, err := New(target, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestCheckpointSaveMatchesMarshal pins Save's one-pass encode: the file it
// writes is byte-identical to json.Marshal of the checkpoint, which
// re-compacts MarshalJSON's output.
func TestCheckpointSaveMatchesMarshal(t *testing.T) {
	for _, fc := range fuzzCampaigns {
		ck := midCampaignCheckpoint(t, mustCampaign(t, fc.target, fc.opts...), fc.stop)
		want, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fc.target+".ckpt")
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Save wrote %d bytes that differ from json.Marshal's %d", fc.target, len(got), len(want))
		}
	}
}

// BenchmarkCheckpointSave times Save of a real mid-campaign isasim
// checkpoint: the isasim-resume benchmark workload's campaign (seed 42,
// 24000 iterations) at its first barrier past the midpoint.
func BenchmarkCheckpointSave(b *testing.B) {
	ck := midCampaignCheckpoint(b, mustCampaign(b, "isasim", WithSeed(42), WithIterations(24000)), 12032)
	path := filepath.Join(b.TempDir(), "isasim.ckpt")
	if err := ck.Save(path); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	for b.Loop() {
		if err := ck.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint. A checkpoint
// it accepts is resumed into the matching fuzzCampaigns campaign and paused
// at its first barrier. Every input must end in an error or a run; none
// may panic or hang. The seeds are real isasim and boom barrier
// checkpoints.
func FuzzLoadCheckpoint(f *testing.F) {
	campaigns := map[string]*Campaign{}
	for _, fc := range fuzzCampaigns {
		c := mustCampaign(f, fc.target, fc.opts...)
		campaigns[fc.target] = c
		data, err := json.Marshal(midCampaignCheckpoint(f, c, fc.stop))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		c, ok := campaigns[ck.Target()]
		if !ok {
			// Resume must refuse a checkpoint of another target.
			c = campaigns["boom"]
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := c.Resume(ctx, ck)
		if err != nil {
			return
		}
		for ev := range s.Events() {
			if ev.Kind == EventEpoch {
				cancel()
			}
		}
		if _, err := s.Wait(); err != nil && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("resumed session ended with %v", err)
		}
	})
}

// parentCheckpoint is a version-3 file written at commit 13bbcf2, whose
// engine stored the epoch ordinal, each shard's pick_count and
// warm_consumed, the scheduler posterior in sched_state, scenario_stats and
// each mark's end, all of which resume now derives. It was written by
//
//	c, _ := Options{Target: "boom", Seed: 3, Iterations: 48, Shards: 4,
//		MergeEvery: 4}.Campaign(WithWarmStart(harvestWarmStart(t)))
//	midCampaignCheckpoint(t, c, 4).Save("testdata/checkpoint-v3-parent.json")
//
// At that iteration-4 barrier each shard has replayed one of its two warm
// seeds, so the stored replay cursor is mid-replay.
var parentCheckpoint = filepath.Join("testdata", "checkpoint-v3-parent.json")

// resumeParentCheckpoint resumes the checkpoint at path into the parent
// file's campaign and requires the uninterrupted run's report.
func resumeParentCheckpoint(t *testing.T, path string) {
	t.Helper()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Options{Target: "boom", Seed: 3, Iterations: 48, Shards: 4, MergeEvery: 4}.Campaign(
		WithWarmStart(harvestWarmStart(t)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Resume(context.Background(), ck)
	if err != nil {
		t.Fatal(err)
	}
	for range s.Events() {
	}
	rep, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportFingerprint(t, c.Run()), reportFingerprint(t, rep)) {
		t.Error("resumed parent-format checkpoint diverges from the uninterrupted run")
	}
}

// TestParentCheckpointResumes pins that version-3 files which still store
// values resume derives resume byte-identically: decoding ignores those
// keys.
func TestParentCheckpointResumes(t *testing.T) {
	raw, err := os.ReadFile(parentCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"epoch":1`, `"sched_state":`, `"pick_count":1`, `"warm_consumed":1`,
		`"scenario_stats":`, `"marks":[{"end":4,`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("%s lacks %s; this test needs a file that stores the derived values", parentCheckpoint, key)
		}
	}
	resumeParentCheckpoint(t, parentCheckpoint)
}

// TestParentCheckpointEditedCopiesIgnored: resume reads none of the parent
// file's copies of what it recomputes (scenario_stats, each mark's end,
// each iters record's Iteration, Trigger and Finding, and each finding's
// Scenario and Window), so the file edited in all of them still resumes to
// the uninterrupted run. It is decoded with
// UseNumber: through float64 the seeds' int64 Rand would lose precision
// and the warm seeds' digest would stop matching.
func TestParentCheckpointEditedCopiesIgnored(t *testing.T) {
	raw, err := os.ReadFile(parentCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, row := range doc["scenario_stats"].([]any) {
		if r := row.(map[string]any); r["name"] == "cache-occupancy" {
			r["picks"], r["first_finding_iter"] = -5, 9999
			edited++
		}
	}
	iters := doc["iters"].([]any)
	rec := func(i int) map[string]any { return iters[i].(map[string]any) }
	// The file's one finding is at iteration 1; flag iteration 2 instead.
	if edited != 1 || rec(1)["Finding"] != true || rec(2)["Finding"] != false {
		t.Fatalf("%s is not the file this test edits", parentCheckpoint)
	}
	rec(1)["Finding"], rec(2)["Finding"] = false, true
	rec(0)["Iteration"] = 9
	rec(3)["Trigger"] = 0
	// The finding is a cache-occupancy seed's; claim another family and
	// class for it.
	finding := doc["findings"].([]any)[0].(map[string]any)
	if finding["Scenario"] != "cache-occupancy" {
		t.Fatalf("%s's finding has scenario %v; this test edits a cache-occupancy one", parentCheckpoint, finding["Scenario"])
	}
	finding["Scenario"], finding["Window"] = "page-fault", 7
	doc["marks"].([]any)[0].(map[string]any)["end"] = 7
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edited.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeParentCheckpoint(t, path)
}
