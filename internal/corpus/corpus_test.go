package corpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

// testFamily is the scenario family of every test seed.
const testFamily = "branch-mispredict"

// testSeed returns a seed that passes gen.Seed.Validate (every knob in its
// drawn range), told apart from others by r and windowLen.
func testSeed(r int64, windowLen int) gen.Seed {
	return gen.Seed{Scenario: testFamily, Trigger: gen.TrigBranchMispred, Rand: r, TriggerOff: 60, WindowLen: windowLen, EncodeOps: 1}
}

// testBatch builds n distinct harvested seeds with deterministic evidence.
func testBatch(n, iterBase int) []core.HarvestedSeed {
	out := make([]core.HarvestedSeed, n)
	for i := range out {
		out[i] = core.HarvestedSeed{
			Iteration: iterBase + i,
			Seed:      testSeed(int64(1000+iterBase+i), 4+i%8),
			NewPoints: i + 1,
			Finding:   i%3 == 0,
		}
	}
	return out
}

func TestHarvestIdempotent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	batch := testBatch(5, 0)
	added, err := st.Harvest("c1", "boom", "fp-test", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 {
		t.Fatalf("first harvest added %d, want 5", added)
	}
	want := st.List("", "")
	// Replaying the exact same batch from the same campaign — the unclean-
	// restart re-drain case — must be a complete no-op.
	added, err = st.Harvest("c1", "boom", "fp-test", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("replayed harvest added %d, want 0", added)
	}
	if !reflect.DeepEqual(st.List("", ""), want) {
		t.Fatal("replayed harvest changed the entries")
	}
	// The same observations from a later campaign are new observations of
	// the same entries, not new entries, and no better than c1's: c2 sorts
	// after c1.
	if added, err = st.Harvest("c2", "boom", "fp-test", batch); err != nil || added != 0 {
		t.Fatalf("second-campaign harvest of equal observations: added=%d err=%v, want 0", added, err)
	}
	if !reflect.DeepEqual(st.List("", ""), want) {
		t.Fatal("equal observations from a later campaign changed the entries")
	}
	// A larger gain improves the entry, whichever campaign makes it.
	better := append([]core.HarvestedSeed(nil), batch[:1]...)
	better[0].NewPoints += 10
	if added, err = st.Harvest("c2", "boom", "fp-test", better); err != nil || added != 1 {
		t.Fatalf("better observation: added=%d err=%v, want 1", added, err)
	}
	if n := st.Len(); n != 5 {
		t.Fatalf("store has %d entries after cross-campaign fold, want 5", n)
	}
	e := st.List("", "")
	for i := range e {
		if e[i].ID == EntryID("boom", better[0].Seed) && e[i].Best != (Observation{Points: better[0].NewPoints, Finding: true, Origin: Origin{"c2", 0}}) {
			t.Fatalf("improved entry holds %+v", e[i].Best)
		}
	}
}

// TestBestObservationNotAJoin: an entry keeps its single best observation —
// a finding outranks any coverage gain — not a componentwise join of the
// largest gain and a separate found-a-bug flag.
func TestBestObservationNotAJoin(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seed := testSeed(7, 4)
	for _, h := range []struct {
		campaign string
		obs      core.HarvestedSeed
	}{
		{"c1", core.HarvestedSeed{Iteration: 40, Seed: seed, NewPoints: 9}},
		{"c2", core.HarvestedSeed{Iteration: 3, Seed: seed, NewPoints: 1, Finding: true}},
		{"c3", core.HarvestedSeed{Iteration: 1, Seed: seed, NewPoints: 1, Finding: true}},
	} {
		if _, err := st.Harvest(h.campaign, "boom", "fp-test", []core.HarvestedSeed{h.obs}); err != nil {
			t.Fatal(err)
		}
	}
	want := Observation{Finding: true, Points: 1, Origin: Origin{Campaign: "c2", Iteration: 3}}
	if got := st.List("", ""); len(got) != 1 || got[0].Best != want {
		t.Fatalf("entries %+v, want one whose best observation is %+v", got, want)
	}
}

// TestOriginOrder pins the campaign order: c<N> IDs by N, then iteration.
func TestOriginOrder(t *testing.T) {
	ordered := []Origin{{"c2", 5}, {"c2", 7}, {"c10", 0}, {"c11", 3}, {"c100", 1}}
	for i, a := range ordered {
		for j, b := range ordered {
			if a.Before(b) != (i < j) {
				t.Errorf("%v.Before(%v) = %t, want %t", a, b, a.Before(b), i < j)
			}
		}
	}
}

func TestOpenRecoversTornJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	want := st.List("", "")

	// Simulate a crash mid-append: copy the live journal (Close would
	// compact it away) and add a torn trailing line — the only debris an
	// interrupted journal write can leave.
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) == 0 {
		t.Fatal("expected a non-empty journal before compaction")
	}
	crashDir := t.TempDir()
	torn := append(append([]byte(nil), journal...), []byte(`{"campaign":"c1","target":"boom","fingerprint":"fp-test","batch":[{"iter`)...)
	if err := os.WriteFile(filepath.Join(crashDir, journalFile), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(crashDir)
	if err != nil {
		t.Fatalf("Open with torn journal tail: %v", err)
	}
	defer re.Close()
	got := re.List("", "")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered entries differ:\n got %+v\nwant %+v", got, want)
	}
	// Open folds the replayed journal into a fresh snapshot immediately, so
	// the crash debris is gone from disk too.
	if data, err := os.ReadFile(filepath.Join(crashDir, journalFile)); err != nil || len(data) != 0 {
		t.Fatalf("journal not truncated after recovery compaction: len=%d err=%v", len(data), err)
	}
	if _, err := os.Stat(filepath.Join(crashDir, snapshotFile)); err != nil {
		t.Fatalf("snapshot missing after recovery compaction: %v", err)
	}
	// The torn record dropped a whole harvest, not part of one: the server's
	// re-drain of that barrier is absorbed in full.
	if added, err := re.Harvest("c1", "boom", "fp-test", testBatch(2, 3)); err != nil || added != 2 {
		t.Fatalf("re-drain after torn tail: added=%d err=%v, want 2", added, err)
	}
}

func TestOpenRejectsMidJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	good, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Harvest("c1", "boom", "fp-test", testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	good.Close()

	// A garbage line that is NOT the tail means real corruption, not a torn
	// append; Open must refuse rather than silently drop records.
	corruptDir := t.TempDir()
	corrupt := append([]byte("not json\n"), journal...)
	if err := os.WriteFile(filepath.Join(corruptDir, journalFile), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(corruptDir); err == nil {
		t.Fatal("Open accepted a journal with mid-file corruption")
	}
}

// TestOpenSkipsRecordsInSnapshot: a crash between a compaction's snapshot
// write and its journal truncation leaves records whose effect the
// snapshot already holds. Applying a record is idempotent, so Open
// replays them as no-ops and the store comes back byte-identical.
func TestOpenSkipsRecordsInSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(2, 10*b)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Harvest("c2", "boom", "fp-test", testBatch(3, 10*b)); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replaying records already in the snapshot changed it:\n got %s\nwant %s", got, want)
	}
}

// TestOpenRejectsUnknownVersion pins the store's one accepted format.
// Version 1 (per-entry "seen" keys), version 2 (per-campaign watermarks,
// running sums and frontier history) and any other version are refused
// naming the version; an entry or a journal record no harvest could have
// written is refused naming the field. A decodable record is never a torn
// append, so it is refused even as the journal's last line.
func TestOpenRejectsUnknownVersion(t *testing.T) {
	enc, err := json.Marshal(testSeed(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	seed := `"seed":` + string(enc)
	entry := `{"id":"0011223344556677","target":"boom","scenario":"` + testFamily + `","fingerprint":"fp-test",` + seed + `,`
	batch := func(obs string) string {
		return `{"campaign":"c1","target":"boom","fingerprint":"fp-test","batch":[` + obs + `]}` + "\n"
	}
	for _, tc := range []struct {
		name, file, data, want string
	}{
		{"version-1", snapshotFile, `{"version":1,"entries":[{"id":"0011223344556677","target":"boom","seen":["c1#3"]}]}`, "version 1"},
		{"version-2", snapshotFile, `{"version":2,"watermarks":{"c1":3},"entries":[{"id":"0011223344556677","target":"boom","points":4,"harvests":2}]}`, "version 2"},
		{"version-99", snapshotFile, `{"version":99,"entries":[]}`, "version 99"},
		{"negative-best-iteration", snapshotFile, `{"version":3,"entries":[` + entry + `"best":{"finding":false,"points":1,"campaign":"c1","iteration":-2}}]}`, "iteration"},
		{"negative-best-points", snapshotFile, `{"version":3,"entries":[` + entry + `"best":{"finding":false,"points":-1,"campaign":"c1","iteration":2}}]}`, "points"},
		{"best-without-campaign", snapshotFile, `{"version":3,"entries":[` + entry + `"best":{"finding":false,"points":1,"iteration":2}}]}`, "campaign"},
		{"entry-listed-twice", snapshotFile, `{"version":3,"entries":[` + entry + `"best":{"points":1,"campaign":"c1","iteration":2}},` +
			entry + `"best":{"points":2,"campaign":"c1","iteration":3}}]}`, "twice"},
		{"empty-campaign", journalFile, `{"campaign":"","target":"boom","batch":[{"iteration":4,` + seed + `}]}` + "\n", "campaign"},
		{"no-campaign", journalFile, `{"target":"boom","batch":[{"iteration":4,` + seed + `}]}` + "\n", "campaign"},
		{"negative-iteration", journalFile, batch(`{"iteration":-1,` + seed + `}`), "iteration"},
		{"negative-points", journalFile, batch(`{"iteration":1,"new_points":-3,` + seed + `}`), "points"},
		{"batch-without-seed", journalFile, batch(`{"iteration":4}`), "Scenario"},
		{"empty-batch", journalFile, batch(``), "empty batch"},
		// A version-2 store killed before its first restart has a journal of
		// post-state records and no corpus.json; they must not replay as
		// no-ops and compact the corpus away.
		{"version-2-put", journalFile, `{"campaign":"c1","through":3,"put":[` + entry +
			`"best_points":4,"points":4,"harvests":1,"findings":0,"first_campaign":"c1","first_iteration":3}]}` + "\n", "empty target"},
		{"version-2-del", journalFile, `{"campaign":"c1","through":5,"del":["0011223344556677"]}` + "\n", "empty target"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("%s: store loaded", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal does not name %q: %v", tc.name, tc.want, err)
		}
	}
}

// TestOpenRefusesInvalidSeed: an entry whose seed no generator could have
// drawn (here a negative WindowLen) is refused whether it comes from the
// snapshot or from a journal record, naming the file, the entry and the
// field, before a warm start can hand it to a campaign.
func TestOpenRefusesInvalidSeed(t *testing.T) {
	e := Entry{Target: "boom", Scenario: testFamily, Fingerprint: "fp-test", Seed: testSeed(7, 4),
		Best: Observation{Points: 1, Origin: Origin{Campaign: "c1", Iteration: 3}}}
	e.Seed.WindowLen = -4
	e.ID = EntryID(e.Target, e.Seed)
	snapshot, err := json.Marshal(storeFile{Version: storeVersion, Entries: []Entry{e}})
	if err != nil {
		t.Fatal(err)
	}
	record, err := json.Marshal(journalRec{Campaign: "c1", Target: e.Target, Fingerprint: e.Fingerprint,
		Batch: []core.HarvestedSeed{{Iteration: 3, Seed: e.Seed, NewPoints: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		data []byte
	}{
		{snapshotFile, snapshot},
		{journalFile, append(record, '\n')},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if err == nil {
			t.Errorf("%s: store with a negative WindowLen loaded", tc.file)
			continue
		}
		for _, want := range []string{tc.file, e.ID, "WindowLen"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: refusal does not name %q: %v", tc.file, want, err)
			}
		}
	}
	// Harvest refuses the same seed rather than journal a record Open would
	// refuse.
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if added, err := st.Harvest("c1", e.Target, e.Fingerprint, []core.HarvestedSeed{{Iteration: 3, Seed: e.Seed}}); err == nil || added != 0 {
		t.Fatalf("harvest of a negative WindowLen: added=%d err=%v, want a refusal", added, err)
	}
	if st.journalSize != 0 {
		t.Fatalf("refused harvest wrote %d journal bytes", st.journalSize)
	}
}

// TestReplayAboveClassCap: re-draining a barrier whose harvest pushed the
// class over its cap — as a whole, or just the seed the cap evicted — adds
// nothing, leaves the journal alone and compacts to the same corpus.json.
func TestReplayAboveClassCap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := testBatch(classCap+1, 0)
	if added, err := st.Harvest("c1", "boom", "fp-test", batch); err != nil || added != classCap {
		t.Fatalf("harvest: added=%d err=%v, want %d", added, err, classCap)
	}
	if n := st.Len(); n != classCap {
		t.Fatalf("class holds %d entries, want the cap %d", n, classCap)
	}
	wantList := st.List("", "")
	kept := map[string]bool{}
	for _, e := range wantList {
		kept[e.ID] = true
	}
	var evicted []core.HarvestedSeed
	for _, h := range batch {
		if !kept[EntryID("boom", h.Seed)] {
			evicted = append(evicted, h)
		}
	}
	// testBatch's second observation has the smallest gain without a
	// finding.
	if len(evicted) != 1 || evicted[0].Iteration != 1 {
		t.Fatalf("the cap evicted %+v, want the observation at iteration 1", evicted)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	wantJournal := journalSize(t, dir)

	for _, redrain := range [][]core.HarvestedSeed{batch, evicted} {
		added, err := st.Harvest("c1", "boom", "fp-test", redrain)
		if err != nil {
			t.Fatal(err)
		}
		if added != 0 {
			t.Fatalf("re-drain of %d observations above the class cap added %d, want 0", len(redrain), added)
		}
		if n := st.Len(); n != classCap {
			t.Fatalf("re-drain moved Len to %d, want %d", n, classCap)
		}
		if !reflect.DeepEqual(st.List("", ""), wantList) {
			t.Fatal("re-drain changed the listed entries")
		}
		if got := journalSize(t, dir); got != wantJournal {
			t.Fatalf("re-drain grew the journal from %d to %d bytes", wantJournal, got)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-drains changed the compacted %s (err %v)", snapshotFile, err)
	}
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFailedAppendLeavesStoreUnchanged: a harvest whose journal append
// fails must not reach the in-memory store, or /corpus would list entries
// a restart loses.
func TestFailedAppendLeavesStoreUnchanged(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	wantLen, wantList, wantFrontier := st.Len(), st.List("", ""), st.Frontier().ID

	// Force the next append to fail.
	if err := st.journal.Close(); err != nil {
		t.Fatal(err)
	}
	added, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 10))
	if err == nil || added != 0 {
		t.Fatalf("harvest over a failed append: added=%d err=%v, want 0 and an error", added, err)
	}
	if st.Len() != wantLen {
		t.Fatalf("Len moved to %d, want %d", st.Len(), wantLen)
	}
	if !reflect.DeepEqual(st.List("", ""), wantList) {
		t.Fatal("List changed after a failed append")
	}
	if id := st.Frontier().ID; id != wantFrontier {
		t.Fatalf("frontier moved to %s, want %s", id, wantFrontier)
	}
}

// halfWriteThen returns a journal writer that writes the first half of a
// record and then fails, as an append to a full disk does; after is called
// on the file before the error returns.
func halfWriteThen(after func(*os.File)) func(*os.File, []byte) (int, error) {
	return func(f *os.File, line []byte) (int, error) {
		n, err := f.Write(line[:len(line)/2])
		if err != nil {
			return n, err
		}
		after(f)
		return n, errors.New("injected: no space left on device")
	}
}

// TestShortJournalWriteRollsBack: a harvest whose journal append writes
// half its record and fails leaves the store unchanged, the next harvest
// succeeds, and Open accepts the journal with both harvests in it (a
// partial record left in place would be extended by the next append into
// mid-file corruption).
func TestShortJournalWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	wantLen, wantList, wantFrontier := st.Len(), st.List("", ""), st.Frontier().ID

	st.writeJournal = halfWriteThen(func(*os.File) {})
	if added, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 10)); err == nil || added != 0 {
		t.Fatalf("harvest over a short write: added=%d err=%v, want 0 and an error", added, err)
	}
	if st.Len() != wantLen || !reflect.DeepEqual(st.List("", ""), wantList) || st.Frontier().ID != wantFrontier {
		t.Fatal("store changed after a short journal write")
	}

	st.writeJournal = (*os.File).Write
	if added, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 10)); err != nil || added != 3 {
		t.Fatalf("harvest after a rolled-back write: added=%d err=%v, want 3", added, err)
	}
	want := st.List("", "")

	// Open a copy of the live journal (Close would compact it away).
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(copyDir, journalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(copyDir)
	if err != nil {
		t.Fatalf("Open after a rolled-back short write: %v", err)
	}
	defer re.Close()
	if got := re.List("", ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened entries differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestShortJournalWriteUnrecoverable: when the partial record cannot be
// truncated away either, Harvest reports both errors and refuses every
// later harvest. Reopening must drop the torn tail — even when it is the
// journal's only line — so the next append starts a clean record.
func TestShortJournalWriteUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // compacts: the journal is now empty
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	// Closing the file after the partial write makes the truncate fail.
	st.writeJournal = halfWriteThen(func(f *os.File) { f.Close() })
	_, err = st.Harvest("c1", "boom", "fp-test", testBatch(3, 10))
	if err == nil || !strings.Contains(err.Error(), "injected") || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("unrecoverable short write: err=%v, want the write and truncate errors", err)
	}
	st.writeJournal = (*os.File).Write
	if added, err := st.Harvest("c2", "boom", "fp-test", testBatch(1, 20)); err == nil || added != 0 {
		t.Fatalf("harvest after an unrecoverable write: added=%d err=%v, want a refusal", added, err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer re.Close()
	if added, err := re.Harvest("c1", "boom", "fp-test", testBatch(3, 10)); err != nil || added != 3 {
		t.Fatalf("harvest after reopen: added=%d err=%v, want 3", added, err)
	}
	want := re.List("", "")
	// Open a copy of the live files (Close would compact the journal away):
	// the harvest must not have been glued onto the torn line.
	copyDir := t.TempDir()
	for _, name := range []string{snapshotFile, journalFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := Open(copyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if got := cp.List("", ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("harvest after reopen lost:\n got %+v\nwant %+v", got, want)
	}
}

// TestStoreSizeBoundedByCampaigns: one campaign observing one seed at 100
// and then at 1000 increasing iterations leaves snapshots that differ only
// in counter digits — the store grows with entries, not observations.
func TestStoreSizeBoundedByCampaigns(t *testing.T) {
	size := func(n int) int64 {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		seed := testSeed(7, 4)
		for i := 0; i < n; i++ {
			obs := []core.HarvestedSeed{{Iteration: 3 * i, Seed: seed, NewPoints: 1 + i%5, Finding: i%2 == 0}}
			if _, err := st.Harvest("c1", "boom", "fp-test", obs); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small, large := size(100), size(1000)
	if large-small >= 512 {
		t.Fatalf("%s grew from %d to %d bytes between 100 and 1000 observations, want < 512", snapshotFile, small, large)
	}
}

func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(4, 0)); err != nil {
		t.Fatal(err)
	}
	want := st.List("", "")
	wantFrontier := st.Frontier()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.List("", ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries changed across reopen:\n got %+v\nwant %+v", got, want)
	}
	if got := re.Frontier(); got.ID != wantFrontier.ID {
		t.Fatalf("frontier ID changed across reopen: got %s want %s", got.ID, wantFrontier.ID)
	}
}

func TestConcurrentHarvest(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const campaigns, batches = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", c)
			for b := 0; b < batches; b++ {
				if _, err := st.Harvest(id, "boom", "fp-test", testBatch(4, b*4)); err != nil {
					t.Errorf("harvest %s batch %d: %v", id, b, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// All campaigns harvested the same 32 distinct seeds with the same
	// evidence, so each entry's best observation is c0's, however the
	// goroutines interleaved.
	re, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Len(); n != 32 {
		t.Fatalf("store has %d entries, want 32", n)
	}
	for _, e := range re.List("", "") {
		if e.Best.Campaign != "c0" {
			t.Errorf("entry %s: best observation from %s, want c0", e.ID, e.Best.Campaign)
		}
	}
}

func TestWarmStartPureFunctionOfSnapshot(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	stA, err := Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	stB, err := Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()

	batch := testBatch(10, 0)
	if _, err := stA.Harvest("c1", "boom", "fp-test", batch); err != nil {
		t.Fatal(err)
	}
	// Store B absorbs the same observations from two other campaigns in a
	// different batch split and order: same evidence, different provenance
	// and history.
	if _, err := stB.Harvest("other-a", "boom", "fp-test", batch[5:]); err != nil {
		t.Fatal(err)
	}
	if _, err := stB.Harvest("other-b", "boom", "fp-test", batch[:5]); err != nil {
		t.Fatal(err)
	}

	wsA := stA.WarmStart("boom", "fp-test", nil, 42, 0)
	wsB := stB.WarmStart("boom", "fp-test", nil, 42, 0)
	if wsA.Snapshot != wsB.Snapshot {
		t.Fatalf("same content, different snapshot IDs: %s vs %s", wsA.Snapshot, wsB.Snapshot)
	}
	if !reflect.DeepEqual(wsA.Seeds, wsB.Seeds) {
		t.Fatal("same snapshot and campaign seed resolved different warm seed orders")
	}
	// Same store, same campaign seed: identical resolution every time.
	if again := stA.WarmStart("boom", "fp-test", nil, 42, 0); !reflect.DeepEqual(again, wsA) {
		t.Fatal("re-resolving the same warm start changed the result")
	}
	// A different campaign seed keeps the set but may reorder it.
	other := stA.WarmStart("boom", "fp-test", nil, 43, 0)
	if other.Snapshot != wsA.Snapshot {
		t.Fatal("campaign seed changed the snapshot ID")
	}
	if len(other.Seeds) != len(wsA.Seeds) {
		t.Fatalf("campaign seed changed the selection size: %d vs %d", len(other.Seeds), len(wsA.Seeds))
	}
	if !reflect.DeepEqual(other.Prior, wsA.Prior) {
		t.Fatal("campaign seed changed the frontier prior")
	}
}

// TestFrontierRows: the frontier is a pure function of the kept entries —
// per (target, family), the entries, their summed and largest best gain and
// how many best observations found a bug — and its ID moves with them.
func TestFrontierRows(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	before := st.Frontier()
	want := []FrontierFamily{{Target: "boom", Scenario: testFamily, Entries: 3, Points: 1 + 2 + 3, BestPoints: 3, Findings: 1}}
	if before.Entries != 3 || !reflect.DeepEqual(before.Families, want) {
		t.Fatalf("frontier %+v, want 3 entries in rows %+v", before, want)
	}
	if again := st.Frontier(); again.ID != before.ID {
		t.Fatal("frontier ID moved without a harvest")
	}
	if _, err := st.Harvest("c2", "xiangshan", "fp-test", testBatch(2, 100)); err != nil {
		t.Fatal(err)
	}
	after := st.Frontier()
	if after.ID == before.ID || len(after.Families) != 2 || after.Families[1].Target != "xiangshan" {
		t.Fatalf("frontier after growth: %+v", after)
	}
}

func TestEntryIDStable(t *testing.T) {
	s := testSeed(7, 4)
	a, b := EntryID("boom", s), EntryID("boom", s)
	if a != b {
		t.Fatalf("EntryID not stable: %s vs %s", a, b)
	}
	if EntryID("xiangshan", s) == a {
		t.Fatal("EntryID ignores the target")
	}
	s.Rand = 8
	if EntryID("boom", s) == a {
		t.Fatal("EntryID ignores the seed")
	}
}

// TestSnapshotIDHashesBestObservation: two stores whose entries have the
// same IDs but different best observations resolve different snapshot IDs.
func TestSnapshotIDHashesBestObservation(t *testing.T) {
	ids := map[string]bool{}
	for _, points := range []int{1, 2} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Harvest("c1", "boom", "fp-test", []core.HarvestedSeed{{Iteration: 3, Seed: testSeed(7, 4), NewPoints: points}}); err != nil {
			t.Fatal(err)
		}
		ids[st.WarmStart("boom", "fp-test", nil, 42, 0).Snapshot] = true
		st.Close()
	}
	if len(ids) != 2 {
		t.Fatalf("entries with different best observations share a snapshot ID: %v", ids)
	}
}

// TestHarvestOrderFree: a harvest set above the class cap, with seeds
// shared by three campaigns, delivered in shuffled orders with random
// re-deliveries of earlier batches, always compacts to the same corpus.json
// bytes, one frontier ID and one warm start: the classCap seeds with the
// best observations, each holding its best.
func TestHarvestOrderFree(t *testing.T) {
	const seeds, batchLen, orders = classCap + 176, 48, 100
	rng := rand.New(rand.NewSource(1))
	type delivery struct {
		campaign string
		batch    []core.HarvestedSeed
	}
	var set []delivery
	best := map[string]Observation{}
	for _, campaign := range []string{"c9", "c10", "c11"} {
		var obs []core.HarvestedSeed
		for i := 0; i < seeds; i++ {
			if rng.Intn(3) == 0 {
				continue // each campaign sees about two thirds of the seeds
			}
			h := core.HarvestedSeed{Iteration: len(obs), Seed: testSeed(int64(i), 4+i%8), NewPoints: rng.Intn(6), Finding: rng.Intn(10) == 0}
			obs = append(obs, h)
			o := Observation{Finding: h.Finding, Points: h.NewPoints, Origin: Origin{Campaign: campaign, Iteration: h.Iteration}}
			if b, ok := best[EntryID("boom", h.Seed)]; !ok || o.better(b) {
				best[EntryID("boom", h.Seed)] = o
			}
		}
		for lo := 0; lo < len(obs); lo += batchLen {
			set = append(set, delivery{campaign, obs[lo:min(lo+batchLen, len(obs))]})
		}
	}
	// The kept set is the classCap best seeds, whatever the order.
	var want []Entry
	for id, b := range best {
		want = append(want, Entry{ID: id, Best: b})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].outranks(&want[j]) })
	want = want[:classCap]
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })

	var wantFile []byte
	var wantFrontier string
	var wantWarm WarmSet
	for k := 0; k < orders; k++ {
		dir := filepath.Join(t.TempDir(), "corpus")
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		order := rng.Perm(len(set))
		for n, i := range order {
			deliveries := []int{i}
			if rng.Intn(5) == 0 {
				deliveries = append(deliveries, order[rng.Intn(n+1)]) // re-deliver an earlier batch
			}
			for _, j := range deliveries {
				if _, err := st.Harvest(set[j].campaign, "boom", "fp-test", set[j].batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		frontier, warm := st.Frontier().ID, st.WarmStart("boom", "fp-test", nil, 42, 0)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			wantFile, wantFrontier, wantWarm = file, frontier, warm
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := re.List("", "")
			re.Close()
			if len(got) != len(want) {
				t.Fatalf("store keeps %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Best != want[i].Best {
					t.Fatalf("entry %d is %s with %+v, want %s with %+v", i, got[i].ID, got[i].Best, want[i].ID, want[i].Best)
				}
			}
			continue
		}
		if !bytes.Equal(file, wantFile) {
			t.Fatalf("order %d compacted to a different %s", k, snapshotFile)
		}
		if frontier != wantFrontier {
			t.Fatalf("order %d: frontier %s, want %s", k, frontier, wantFrontier)
		}
		if !reflect.DeepEqual(warm, wantWarm) {
			t.Fatalf("order %d resolved a different warm start", k)
		}
	}
}

// TestClassesKeepTheirOwnEntries: a seed harvested under two fingerprints
// (campaigns with one campaign seed and different fingerprints can draw the
// same seeds) is an entry of each class, and the store is the same in
// either harvest order.
func TestClassesKeepTheirOwnEntries(t *testing.T) {
	obs := []core.HarvestedSeed{{Iteration: 3, Seed: testSeed(7, 4), NewPoints: 2}}
	campaign := map[string]string{"fp-a": "c1", "fp-b": "c2"}
	var want []byte
	for _, order := range [][]string{{"fp-a", "fp-b"}, {"fp-b", "fp-a"}} {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range order {
			if added, err := st.Harvest(campaign[fp], "boom", fp, obs); err != nil || added != 1 {
				t.Fatalf("harvest under %s: added=%d err=%v, want 1", fp, added, err)
			}
		}
		for _, fp := range order {
			if n := len(st.View("boom", fp, nil).Entries); n != 1 {
				t.Fatalf("class %s holds %d entries, want 1", fp, n)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("harvest order changed %s:\n got %s\nwant %s", snapshotFile, got, want)
		}
	}
}
