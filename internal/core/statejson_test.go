package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"dejavuzz/internal/core"
	_ "dejavuzz/internal/isadiff" // registers the isasim target
)

// referenceState is EngineState without its methods: json.Marshal of it is
// the reflection encoding, the reference every save must reproduce byte
// for byte.
type referenceState core.EngineState

// checkEncoding reports an error unless st's encoding is its reference
// encoding. It may run on any goroutine.
func checkEncoding(t testing.TB, what string, st *core.EngineState) {
	want, err := json.Marshal((*referenceState)(st))
	if err != nil {
		t.Errorf("%s: reference encoding: %v", what, err)
		return
	}
	got, err := st.MarshalJSON()
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
}

// campaignOptions returns a target's default options at seed 42 with
// barriers every 8 iterations.
func campaignOptions(t testing.TB, target string, n int) core.Options {
	t.Helper()
	tgt, err := core.LookupTarget(target)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptionsFor(tgt)
	opts.Seed, opts.Iterations, opts.Workers, opts.MergeEvery = 42, n, 2, 8
	return opts
}

// TestStateEncodingMatchesReference saves at every barrier of a boom, a
// xiangshan and an isasim campaign. Each barrier's snapshot is encoded
// concurrently with every earlier one, so older states are saved after
// newer ones while the memo grows. Every save must equal the reference
// encoding: the interrupted state's, the decoded state's (no memo, which
// must reproduce the file it was decoded from) and those of the fuzzer
// resumed from it, whose first save encodes the whole restored history.
// Each fuzzer encodes each record once.
func TestStateEncodingMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		target string
		n      int
	}{{"boom", 48}, {"xiangshan", 48}, {"isasim", 512}} {
		t.Run(tc.target, func(t *testing.T) {
			var taken []*core.EngineState
			findings := 0
			save := func(b *core.Barrier) {
				taken = append(taken, b.Snapshot())
				var wg sync.WaitGroup
				for _, st := range taken {
					wg.Add(1)
					go func() {
						defer wg.Done()
						checkEncoding(t, fmt.Sprintf("barrier %d, state at %d", b.Done, st.NextIter), st)
					}()
				}
				wg.Wait()
				findings = max(findings, len(taken[len(taken)-1].Findings))
			}
			// A fuzzer's memo holds each of its records once.
			encodedOnce := func(what string) {
				last := taken[len(taken)-1]
				if got, want := core.EncodedRecords(last), len(last.Iters)+len(last.Findings); got != want {
					t.Errorf("%s encoded %d records, want %d, one per record", what, got, want)
				}
			}

			half := tc.n / 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := campaignOptions(t, tc.target, tc.n)
			opts.OnBarrier = func(b *core.Barrier) {
				save(b)
				if b.Done == half {
					cancel()
				}
			}
			_, st := core.NewFuzzer(opts).RunContext(ctx)
			if st == nil || st.NextIter != half {
				t.Fatalf("campaign did not stop at %d", half)
			}
			checkEncoding(t, "interrupted state", st)
			encodedOnce("the interrupted fuzzer")

			file, err := st.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			decoded := &core.EngineState{}
			if err := json.Unmarshal(file, decoded); err != nil {
				t.Fatal(err)
			}
			if again, err := decoded.MarshalJSON(); err != nil || !bytes.Equal(again, file) {
				t.Fatalf("decoded state re-encodes to %d bytes (err %v), want the %d it was decoded from", len(again), err, len(file))
			}

			taken = nil
			opts.OnBarrier = save
			f, err := core.NewFuzzerFromState(decoded, opts)
			if err != nil {
				t.Fatal(err)
			}
			f.Run()
			encodedOnce("the resumed fuzzer")
			if tc.target != "isasim" && findings == 0 {
				t.Error("campaign found nothing; its finding records are untested")
			}
		})
	}
}

// TestAutosavesEncodeEachRecordOnce follows a session's autosave cadence (at
// most 64 saves, every saveEvery-th barrier) and pins that each iteration
// and finding record is encoded once over a fuzzer's saves, where
// re-encoding every state's whole history would encode the sum of the
// saves' record counts. The isasim case is the isasim-resume benchmark's
// campaign uninterrupted; the boom case has findings and is interrupted
// between autosaves, so its final save (Pause's) covers the gap.
func TestAutosavesEncodeEachRecordOnce(t *testing.T) {
	for _, tc := range []struct {
		target    string
		n, every  int
		stop      int // cancel at this barrier; 0 runs to completion
		once, all int // records encoded; the sum of the saves' records (0: not pinned)
	}{
		{target: "isasim", n: 24000, every: 64, once: 23808, all: 749952},
		{target: "boom", n: 520, every: 8, stop: 264},
	} {
		t.Run(tc.target, func(t *testing.T) {
			opts := campaignOptions(t, tc.target, tc.n)
			opts.MergeEvery = tc.every
			epochs := (tc.n + tc.every - 1) / tc.every
			saveEvery := 1
			if epochs > 64 {
				saveEvery = (epochs + 63) / 64
			}
			var last *core.EngineState
			all := 0
			save := func(st *core.EngineState) {
				if _, err := st.JSONPieces(); err != nil {
					t.Fatal(err)
				}
				last = st
				all += len(st.Iters) + len(st.Findings)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts.OnBarrier = func(b *core.Barrier) {
				if (b.Epoch+1)%saveEvery == 0 {
					save(b.Snapshot())
				}
				if b.Done == tc.stop {
					cancel()
				}
			}
			_, st := core.NewFuzzer(opts).RunContext(ctx)
			if tc.stop > 0 {
				if st == nil || last.NextIter == st.NextIter {
					t.Fatal("campaign did not stop between autosaves")
				}
				save(st)
			}
			once := len(last.Iters) + len(last.Findings)
			if got := core.EncodedRecords(last); got != once {
				t.Errorf("%d saves encoded %d records, want %d, one per record", saveEvery, got, once)
			}
			if tc.once != 0 && (once != tc.once || all != tc.all) {
				t.Errorf("the saves hold %d records, %d summed over saves; want %d and %d", once, all, tc.once, tc.all)
			}
			if tc.target == "boom" && len(last.Findings) == 0 {
				t.Error("campaign found nothing; its finding records are untested")
			}
			t.Logf("%d records encoded once; re-encoding each save's history would encode %d", once, all)
		})
	}
}

// TestDecodedStateEncodesLikeReference covers what barrier snapshots do
// not: a nil state, and decoded histories that are empty rather than null
// (and the reverse), with and without elapsed_ns.
func TestDecodedStateEncodesLikeReference(t *testing.T) {
	var nilState *core.EngineState
	if got, err := nilState.MarshalJSON(); err != nil || string(got) != "null" {
		t.Errorf("nil state encodes as %q (err %v), want null", got, err)
	}
	opts := campaignOptions(t, "boom", 16)
	var st *core.EngineState
	opts.OnBarrier = func(b *core.Barrier) {
		if b.Done == 16 {
			st = b.Snapshot()
		}
	}
	core.NewFuzzer(opts).Run()
	data, err := json.Marshal((*referenceState)(st))
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []struct {
		name string
		fn   func(st *core.EngineState)
	}{
		{"as taken", func(*core.EngineState) {}},
		{"empty findings, null iters", func(st *core.EngineState) { st.Findings, st.Iters = []core.Finding{}, nil }},
		{"null findings, empty iters", func(st *core.EngineState) { st.Findings, st.Iters = nil, []core.IterStat{} }},
		{"no elapsed", func(st *core.EngineState) { st.Elapsed = 0 }},
	} {
		decoded := &core.EngineState{}
		if err := json.Unmarshal(data, decoded); err != nil {
			t.Fatal(err)
		}
		edit.fn(decoded)
		checkEncoding(t, edit.name, decoded)
	}
}
