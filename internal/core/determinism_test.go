package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// campaignFingerprint strips the wall-clock fields so reports can be
// compared for determinism.
type campaignFingerprint struct {
	Findings  []Finding
	Iters     []IterStat
	Coverage  int
	Sims      int
	DeadSinks int
}

func fingerprint(r *Report) campaignFingerprint {
	return campaignFingerprint{
		Findings:  r.Findings,
		Iters:     r.Iters,
		Coverage:  r.Coverage,
		Sims:      r.Sims,
		DeadSinks: r.DeadSinks,
	}
}

func campaignOpts(workers int, iterations int) Options {
	opts := DefaultOptions(uarch.KindBOOM)
	opts.Seed = 42
	opts.Iterations = iterations
	opts.Workers = workers
	opts.MergeEvery = 16 // several barriers per campaign
	return opts
}

// TestCampaignDeterministicAcrossWorkers is the determinism regression
// test: one campaign run with Workers=1 and Workers=8 from the same seed
// must yield identical findings, coverage count and coverage history.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	iterations := 64
	if testing.Short() {
		iterations = 32
	}
	ref := NewFuzzer(campaignOpts(1, iterations)).Run()
	if ref.Coverage == 0 {
		t.Fatal("reference campaign collected no coverage")
	}
	hist := ref.CoverageHistory()
	if got := hist[len(hist)-1]; got != ref.Coverage {
		t.Fatalf("coverage history ends at %d but Report.Coverage is %d", got, ref.Coverage)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1] {
			t.Fatalf("coverage history not monotone at %d: %d < %d", i, hist[i], hist[i-1])
		}
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference campaign found nothing; determinism check is vacuous")
	}
	for _, workers := range []int{2, 8} {
		rep := NewFuzzer(campaignOpts(workers, iterations)).Run()
		if !reflect.DeepEqual(ref.Findings, rep.Findings) {
			t.Errorf("Workers=%d: findings diverge: %d vs %d", workers, len(ref.Findings), len(rep.Findings))
		}
		if ref.Coverage != rep.Coverage {
			t.Errorf("Workers=%d: coverage %d, want %d", workers, rep.Coverage, ref.Coverage)
		}
		if !reflect.DeepEqual(ref.CoverageHistory(), rep.CoverageHistory()) {
			t.Errorf("Workers=%d: coverage history diverges", workers)
		}
		if !reflect.DeepEqual(fingerprint(ref), fingerprint(rep)) {
			t.Errorf("Workers=%d: full report fingerprint diverges", workers)
		}
	}
}

// TestCampaignCancelResumeDeterministic extends the determinism regression
// test across cancellation: a campaign cancelled at a merge barrier yields
// an EngineState that — after a JSON round-trip, and under a different
// worker count — resumes to a report identical to the uninterrupted run.
func TestCampaignCancelResumeDeterministic(t *testing.T) {
	ref := NewFuzzer(campaignOpts(1, 64)).Run()
	if len(ref.Findings) == 0 {
		t.Fatal("reference campaign found nothing; determinism check is vacuous")
	}

	for _, stopAt := range []int{16, 48} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := campaignOpts(4, 64)
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
		if state.NextIter != stopAt {
			t.Fatalf("stopAt=%d: stopped at %d", stopAt, state.NextIter)
		}

		// The snapshot must survive serialisation: resume from the decoded
		// bytes, with a different worker count than the reference.
		data, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		var restored EngineState
		if err := json.Unmarshal(data, &restored); err != nil {
			t.Fatal(err)
		}
		f, err := NewFuzzerFromState(&restored, campaignOpts(8, 64))
		if err != nil {
			t.Fatal(err)
		}
		resumed := f.Run()
		if !reflect.DeepEqual(fingerprint(ref), fingerprint(resumed)) {
			t.Errorf("stopAt=%d: resumed report diverges from uninterrupted run", stopAt)
		}
	}
}

// snapshotAt runs a campaign until its barrier at iteration done and
// returns the snapshot taken there, decoded from its JSON as a checkpoint
// file is, so that tests may edit it (a state its fuzzer took must not
// change; see recordMemo).
func snapshotAt(t *testing.T, opts Options, done int) *EngineState {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.OnBarrier = func(b *Barrier) {
		if b.Done == done {
			cancel()
		}
	}
	_, state := NewFuzzer(opts).RunContext(ctx)
	if state == nil {
		t.Fatal("no snapshot produced")
	}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	decoded := &EngineState{}
	if err := json.Unmarshal(data, decoded); err != nil {
		t.Fatal(err)
	}
	return decoded
}

// midCampaignSnapshot stops a 32-iteration, single-worker campaign at its
// iteration-16 barrier and returns the snapshot.
func midCampaignSnapshot(t *testing.T) *EngineState {
	t.Helper()
	return snapshotAt(t, campaignOpts(1, 32), 16)
}

// TestResumeStateValidation checks NewFuzzerFromState rejects snapshots
// that cannot have come from the supplied options.
func TestResumeStateValidation(t *testing.T) {
	// Merge every 8: the iteration-16 snapshot carries two marks, and each
	// shard has picked twice.
	opts := campaignOpts(1, 32)
	opts.MergeEvery = 8
	state := snapshotAt(t, opts, 16)
	mismatched := opts
	mismatched.Seed = 999
	if _, err := NewFuzzerFromState(state, mismatched); err == nil {
		t.Error("accepted snapshot under mismatched seed")
	}
	workersOnly := opts
	workersOnly.Workers = 16
	if _, err := NewFuzzerFromState(state, workersOnly); err != nil {
		t.Errorf("rejected workers-only difference: %v", err)
	}
	// Every engine-state version but the current one is refused, naming the
	// version: 2 carried the retired EMA scheduler's weights (version 1 has
	// its own test below).
	for _, v := range []int{2, EngineStateVersion + 1} {
		bad := *state
		bad.Version = v
		if _, err := NewFuzzerFromState(&bad, opts); err == nil {
			t.Errorf("accepted snapshot with version %d", v)
		} else if want := fmt.Sprintf("version %d", v); !strings.Contains(err.Error(), want) {
			t.Errorf("version-%d refusal does not name the version: %v", v, err)
		}
	}
	// Edits no barrier could have written are refused, naming the field and,
	// in iters and findings, the index. Resume folds the scheduler and the
	// per-family statistics from iters and pins the coverage history to
	// marks, so an accepted edit would silently change them.
	if len(state.Findings) < 2 || len(state.Marks) != 2 {
		t.Fatalf("snapshot has %d findings and %d marks; the edits below need at least 2 and exactly 2", len(state.Findings), len(state.Marks))
	}
	deadSinkBound := state.NextIter - len(state.Findings)
	// A family other than the first finding's, to move that finding's seed
	// to.
	first := state.Findings[0]
	var moved *scenario.Family
	for _, name := range scenario.Names() {
		if name != first.Seed.Scenario {
			fam, err := scenario.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			moved = fam
			break
		}
	}
	for _, tc := range []struct {
		name string
		want []string
		edit func(st *EngineState)
	}{
		{"unknown family", []string{"iters[3]", "warp-drive"},
			func(st *EngineState) { st.Iters[3].Scenario = "warp-drive" }},
		{"negative new_points", []string{"iters[5]", "NewPoints"},
			func(st *EngineState) { st.Iters[5].NewPoints = -1 }},
		{"negative sims", []string{"iters[6]", "Sims"},
			func(st *EngineState) { st.Iters[6].Sims = -2 }},
		{"finding at next_iter", []string{"findings[" + fmt.Sprint(len(state.Findings)-1) + "]", "next_iter"},
			func(st *EngineState) { st.Findings[len(st.Findings)-1].Iteration = st.NextIter }},
		{"findings swapped", []string{"findings[1]"},
			func(st *EngineState) { st.Findings[0], st.Findings[1] = st.Findings[1], st.Findings[0] }},
		{"finding seed outside its record's family", []string{"findings[0]", fmt.Sprintf("iters[%d]", first.Iteration), moved.Name},
			func(st *EngineState) {
				st.Findings[0].Seed.Scenario, st.Findings[0].Seed.Trigger = moved.Name, moved.Trigger
			}},
		{"negative dead_sinks", []string{"dead_sinks"},
			func(st *EngineState) { st.DeadSinks = -3 }},
		{"dead_sinks above bound", []string{"dead_sinks"},
			func(st *EngineState) { st.DeadSinks = deadSinkBound + 1 }},
		{"negative gain_count", []string{"gain_count"},
			func(st *EngineState) { st.Shards[0].GainCount = -1 }},
		{"gain_count above picks", []string{"gain_count"},
			func(st *EngineState) { st.Shards[0].GainCount = 3 }},
		{"next_iter off a barrier", []string{"next_iter"},
			func(st *EngineState) { st.NextIter, st.Iters = 12, st.Iters[:12] }},
		{"mark count 0", []string{"marks"},
			func(st *EngineState) { st.Marks[1].Count = 0 }},
		{"negative mark count", []string{"marks"},
			func(st *EngineState) { st.Marks[0].Count = -7 }},
		{"last mark above coverage", []string{"marks", "coverage"},
			func(st *EngineState) { st.Marks[1].Count += 5 }},
		{"decreasing mark counts", []string{"marks"},
			func(st *EngineState) { st.Marks[0].Count = st.Marks[1].Count + 1 }},
		{"extra mark", []string{"marks"},
			func(st *EngineState) { st.Marks = append(st.Marks, EpochMark{Count: st.Marks[1].Count}) }},
	} {
		bad := *state
		bad.Iters = slices.Clone(state.Iters)
		bad.Findings = slices.Clone(state.Findings)
		bad.Shards = slices.Clone(state.Shards)
		bad.Marks = slices.Clone(state.Marks)
		tc.edit(&bad)
		if _, err := NewFuzzerFromState(&bad, opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else {
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: refusal does not name %s: %v", tc.name, w, err)
				}
			}
		}
	}
	// Most mutations keep a seed's family, so a corpus seed from a family
	// the campaign does not run is refused, naming the family.
	fams := scenario.Names()
	filtered := opts
	filtered.Scenarios = fams[:2]
	foreign, err := scenario.Lookup(fams[2])
	if err != nil {
		t.Fatal(err)
	}
	fst := snapshotAt(t, filtered, 8)
	fst.Corpus = append(fst.Corpus, gen.Seed{Scenario: foreign.Name, Trigger: foreign.Trigger, TriggerOff: 70, WindowLen: 5, EncodeOps: 1})
	if _, err := NewFuzzerFromState(fst, filtered); err == nil || !strings.Contains(err.Error(), foreign.Name) {
		t.Errorf("corpus seed from disabled family %s: err=%v, want a refusal naming it", foreign.Name, err)
	}
	// The bounds are tight: a shard may have measured every pick it made,
	// and every iteration without a finding may have yielded a dead sink.
	tight := *state
	tight.Shards = slices.Clone(state.Shards)
	tight.Shards[0].GainCount = 2
	tight.DeadSinks = deadSinkBound
	if _, err := NewFuzzerFromState(&tight, opts); err != nil {
		t.Errorf("refused gain_count and dead_sinks at their bounds: %v", err)
	}
}

// TestResumeCarriesElapsed: a resumed campaign's Duration counts the wall
// time its snapshot carries, not only the last segment's, and a negative
// carried time is refused naming the field.
func TestResumeCarriesElapsed(t *testing.T) {
	state := midCampaignSnapshot(t)
	if state.Elapsed <= 0 {
		t.Fatalf("snapshot carries elapsed %v, want > 0", state.Elapsed)
	}
	state.Elapsed = time.Hour
	f, err := NewFuzzerFromState(state, campaignOpts(1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if rep := f.Run(); rep.Duration < time.Hour {
		t.Fatalf("resumed campaign reports Duration %v, want at least the carried hour", rep.Duration)
	}
	state.Elapsed = -time.Second
	if _, err := NewFuzzerFromState(state, campaignOpts(1, 32)); err == nil || !strings.Contains(err.Error(), "elapsed_ns") {
		t.Fatalf("negative elapsed: err=%v, want a refusal naming elapsed_ns", err)
	}
}

// TestEngineStateV1Refused pins that pre-scheduler checkpoints are refused:
// they predate per-family scheduling, so no posterior can be restored and
// byte-identical resume is impossible.
func TestEngineStateV1Refused(t *testing.T) {
	v1 := *midCampaignSnapshot(t)
	v1.Version = 1
	if _, err := NewFuzzerFromState(&v1, campaignOpts(1, 32)); err == nil {
		t.Fatal("version-1 engine state was accepted")
	} else if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 refusal does not name the version: %v", err)
	}
}

// TestResumeSchedulerMismatchFails: a snapshot whose options name the
// retired "ema" policy cannot resume under the UCB default. The refusal
// comes from the option-mismatch check and names the scheduler field with
// both policies.
func TestResumeSchedulerMismatchFails(t *testing.T) {
	ema := *midCampaignSnapshot(t)
	ema.Options.Scheduler = "ema"
	if _, err := NewFuzzerFromState(&ema, campaignOpts(1, 32)); err == nil {
		t.Fatal("accepted snapshot under the ema scheduler")
	} else {
		if !strings.Contains(err.Error(), "scheduler") {
			t.Fatalf("mismatch error does not name the scheduler option: %v", err)
		}
		if !strings.Contains(err.Error(), "ema") || !strings.Contains(err.Error(), "ucb") {
			t.Fatalf("mismatch error does not show both policies: %v", err)
		}
	}
}

// TestCampaignDeterministicRepeat guards against hidden global state: two
// back-to-back runs of the same options must agree exactly.
func TestCampaignDeterministicRepeat(t *testing.T) {
	a := NewFuzzer(campaignOpts(4, 32)).Run()
	b := NewFuzzer(campaignOpts(4, 32)).Run()
	if !reflect.DeepEqual(fingerprint(a), fingerprint(b)) {
		t.Fatal("identical options produced different reports")
	}
}

// TestCampaignMergeUnderWorkers exercises the shared coverage/corpus merge
// barriers under 8 workers with small epochs so the race detector sees many
// snapshot/merge cycles. It is testing.Short-friendly and is the test CI
// runs under -race.
func TestCampaignMergeUnderWorkers(t *testing.T) {
	opts := DefaultOptions(uarch.KindBOOM)
	opts.Seed = 7
	opts.Iterations = 32
	opts.Workers = 8
	opts.MergeEvery = 4 // one barrier every half-shard-pass
	epochs := 0
	opts.OnBarrier = func(b *Barrier) {
		epochs++
		if b.Done > b.Total {
			t.Errorf("OnBarrier reported done=%d > total=%d", b.Done, b.Total)
		}
	}
	rep := NewFuzzer(opts).Run()
	if epochs != 8 {
		t.Errorf("expected 8 merge barriers, saw %d", epochs)
	}
	if rep.Coverage == 0 {
		t.Error("no coverage merged")
	}
	if got := len(rep.Iters); got != 32 {
		t.Errorf("expected 32 iteration stats, got %d", got)
	}
	for i, it := range rep.Iters {
		if it.Iteration != i {
			t.Fatalf("iteration stat %d carries index %d", i, it.Iteration)
		}
	}
}

// TestCoverageHistoryConsistent pins the history contract across shard
// shapes and seeds: monotone, and final entry exactly Report.Coverage (this
// regressed once via Phase-2 secret retries dropping earlier attempts'
// points from NewPoints).
func TestCoverageHistoryConsistent(t *testing.T) {
	for _, shardCount := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			opts := DefaultOptions(uarch.KindBOOM)
			opts.Seed = seed
			opts.Iterations = 48
			opts.Shards = shardCount
			opts.MergeEvery = 16
			rep := NewFuzzer(opts).Run()
			hist := rep.CoverageHistory()
			if got := hist[len(hist)-1]; got != rep.Coverage {
				t.Errorf("shards=%d seed=%d: history ends at %d, Coverage=%d", shardCount, seed, got, rep.Coverage)
			}
			for i := 1; i < len(hist); i++ {
				if hist[i] < hist[i-1] {
					t.Errorf("shards=%d seed=%d: history not monotone at %d", shardCount, seed, i)
				}
			}
		}
	}
}

// TestShardSeedIndependence checks that shards of one campaign draw
// different streams while the same shard is stable across runs.
func TestShardSeedIndependence(t *testing.T) {
	opts := campaignOpts(1, 16)
	opts.Shards = 4
	a := NewFuzzer(opts).Run()
	opts.Shards = 5
	b := NewFuzzer(opts).Run()
	// Different shard counts reshape the streams; identical full histories
	// would mean the shard id is not feeding the generator.
	if reflect.DeepEqual(a.Iters, b.Iters) {
		t.Error("Shards=4 and Shards=5 produced identical iteration streams")
	}
}
