package dejavuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dejavuzz/internal/core"
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

// referenceState is core.EngineState without its methods: json.Marshal of
// it is the reflection encoding, the reference every checkpoint file must
// equal byte for byte.
type referenceState core.EngineState

func referenceJSON(tb testing.TB, ck *Checkpoint) []byte {
	tb.Helper()
	data, err := json.Marshal((*referenceState)(ck.state))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestCheckpointSaveMatchesMarshal pins Save's encoding: the file it writes
// is byte-identical to json.Marshal of the checkpoint, which compacts
// MarshalJSON's output, and to the reference encoding. A zero Checkpoint
// saves null, which LoadCheckpoint refuses.
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
		if ref := referenceJSON(t, ck); !bytes.Equal(got, ref) {
			t.Errorf("%s: Save wrote %d bytes that differ from the reference encoding's %d", fc.target, len(got), len(ref))
		}
	}
	path := filepath.Join(t.TempDir(), "zero.ckpt")
	if err := (&Checkpoint{}).Save(path); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "null" {
		t.Fatalf("zero Checkpoint saved %q (err %v), want null", got, err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "not a session checkpoint") {
		t.Fatalf("loading a saved zero Checkpoint: err=%v, want a refusal", err)
	}
}

// TestLoadCheckpointOnePass pins that LoadCheckpoint, which decodes in one
// pass, refuses malformed files with the messages the two-pass
// json.Unmarshal(data, ck) gave.
func TestLoadCheckpointOnePass(t *testing.T) {
	valid, err := json.Marshal(midCampaignCheckpoint(t, mustCampaign(t, fuzzCampaigns[0].target, fuzzCampaigns[0].opts...), fuzzCampaigns[0].stop))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, tc := range []struct {
		data string
		want string // a refusal after decoding; empty for a parse error
	}{
		{data: ""},
		{data: "{"},
		{data: string(valid[:len(valid)/2])},
		{data: string(valid) + "x"},
		{data: "[1,2]"},
		{data: `{"options":{"Target":7}}`},
		{data: `{"iters":[{"Iteration":"one"}]}`},
		{data: "null", want: "is not a session checkpoint (no target)"},
		{data: `{"version":2,"options":{"Target":"boom"}}`, want: "engine state version 2, want 3"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("case%d.json", i))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Errorf("case %d: accepted", i)
			continue
		}
		twoPass := json.Unmarshal([]byte(tc.data), &Checkpoint{})
		switch {
		case tc.want == "" && twoPass == nil:
			t.Errorf("case %d: the two-pass decode accepted it", i)
		case tc.want == "" && err.Error() != fmt.Sprintf("dejavuzz: parse checkpoint %s: %v", path, twoPass):
			t.Errorf("case %d: %v, want the two-pass message %v", i, err, twoPass)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("case %d: %v, want %q", i, err, tc.want)
		}
	}
}

// BenchmarkCheckpointSave times Save of the isasim-resume benchmark
// workload's campaign (seed 42, 24000 iterations) at its first barrier past
// the midpoint, 12032 iterations:
//   - cold: a decoded checkpoint, which encodes its whole history at every
//     save, as a resumed campaign's first autosave does;
//   - incremental: one autosave interval (384 iterations) after the
//     previous save, whose records the fuzzer's memo already holds. Each op
//     warms a fresh memo with a cold encode first; ns/op, B/op and
//     allocs/op count the save alone.
func BenchmarkCheckpointSave(b *testing.B) {
	const mid, interval = 12032, 384
	c := mustCampaign(b, "isasim", WithSeed(42), WithIterations(24000))
	path := filepath.Join(b.TempDir(), "isasim.ckpt")
	if err := midCampaignCheckpoint(b, c, mid).Save(path); err != nil {
		b.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for b.Loop() {
			if err := ck.Save(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		var ops, ns, bytes, allocs uint64
		var before, after runtime.MemStats
		for b.Loop() {
			// A fuzzer resumed from the checkpoint and stopped before its
			// first epoch snapshots the same state; saving the snapshot's
			// history up to the previous autosave warms its memo.
			f, err := core.NewFuzzerFromState(ck.state, c.opts)
			if err != nil {
				b.Fatal(err)
			}
			_, snap := f.RunContext(cancelled)
			prev := *snap
			prev.Iters = snap.Iters[:mid-interval]
			if _, err := prev.JSONPieces(); err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := (&Checkpoint{state: snap}).Save(path); err != nil {
				b.Fatal(err)
			}
			ns += uint64(time.Since(start))
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
			ops++
		}
		b.ReportMetric(float64(ns)/float64(ops), "ns/op")
		b.ReportMetric(float64(bytes)/float64(ops), "B/op")
		b.ReportMetric(float64(allocs)/float64(ops), "allocs/op")
		b.ReportMetric(float64(st.Size())*float64(ops)/float64(ns)*1e3, "MB/s")
	})
}

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint. A checkpoint
// it accepts is resumed into the matching fuzzCampaigns campaign and paused
// at its first barrier. Every input must end in an error or a run; none
// may panic or hang, and an accepted one must save back as the reference
// encoding. The seeds are real isasim and boom barrier checkpoints.
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
		// An accepted checkpoint saves back as the reference encoding of
		// what was decoded: the cold encode, with no memo, including null
		// versus empty histories.
		saved := filepath.Join(t.TempDir(), "saved.json")
		if err := ck.Save(saved); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(saved); err != nil || !bytes.Equal(got, referenceJSON(t, ck)) {
			t.Fatalf("saved %d bytes (err %v) that differ from the reference encoding of the decoded state", len(got), err)
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
