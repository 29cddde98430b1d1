package corpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	// Replaying the exact same batch from the same campaign — the unclean-
	// restart re-drain case — must be a complete no-op.
	added, err = st.Harvest("c1", "boom", "fp-test", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("replayed harvest added %d, want 0", added)
	}
	entries := st.List("boom", "")
	if len(entries) != 5 {
		t.Fatalf("store has %d entries, want 5", len(entries))
	}
	for _, e := range entries {
		if e.Harvests != 1 {
			t.Errorf("entry %s: Harvests = %d after replay, want 1", e.ID, e.Harvests)
		}
	}
	// A same-campaign batch whose iterations all sit at or below the
	// campaign's watermark is a replay too, whatever seeds it carries.
	added, err = st.Harvest("c1", "boom", "fp-test", testBatch(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || st.Len() != 5 {
		t.Fatalf("below-watermark batch added %d (store has %d entries), want 0 (5)", added, st.Len())
	}
	// The same seeds from a different campaign are new observations of the
	// same entries, not new entries.
	added, err = st.Harvest("c2", "boom", "fp-test", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 {
		t.Fatalf("second-campaign harvest added %d, want 5", added)
	}
	if n := st.Len(); n != 5 {
		t.Fatalf("store has %d entries after cross-campaign fold, want 5", n)
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
	torn := append(append([]byte(nil), journal...), []byte(`{"campaign":"c1","through":9,"put":[{"id":"dead`)...)
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
// snapshot already holds. Their campaigns' watermarks cover them, so Open
// skips them and the store comes back byte-identical.
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

// TestOpenRejectsUnknownVersion pins the store's one accepted format. A
// version-1 corpus.json (per-entry "seen" keys, no watermarks) and any
// other version are refused naming the version; a negative watermark, and
// a journal record no harvest could have written, are refused naming the
// field. A decodable record is never a torn append, so it is refused even
// as the journal's last line.
func TestOpenRejectsUnknownVersion(t *testing.T) {
	for _, tc := range []struct {
		name, file, data, want string
	}{
		{"version-1", snapshotFile, `{"version":1,"entries":[{"id":"0011223344556677","target":"boom","seen":["c1#3"]}]}`, "version 1"},
		{"version-99", snapshotFile, `{"version":99,"entries":[]}`, "version 99"},
		{"negative-watermark", snapshotFile, `{"version":2,"watermarks":{"c1":-2},"entries":[]}`, "watermarks"},
		{"empty-campaign", journalFile, `{"campaign":"","through":4,"put":[{"id":"00"}]}` + "\n", "campaign"},
		{"no-campaign", journalFile, `{"through":4,"put":[{"id":"00"}]}` + "\n", "campaign"},
		{"negative-through", journalFile, `{"campaign":"c1","through":-1,"put":[{"id":"00"}]}` + "\n", "through"},
		{"put-without-id", journalFile, `{"campaign":"c1","through":4,"put":[{"target":"boom"}]}` + "\n", "id"},
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
		BestPoints: 1, Points: 1, Harvests: 1, FirstCampaign: "c1", FirstIteration: 3}
	e.Seed.WindowLen = -4
	e.ID = EntryID(e.Target, e.Seed)
	snapshot, err := json.Marshal(storeFile{Version: storeVersion, Watermarks: map[string]int{}, Entries: []Entry{e}})
	if err != nil {
		t.Fatal(err)
	}
	record, err := json.Marshal(journalRec{Campaign: "c1", Through: 3, Put: []Entry{e}})
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
}

// TestReplayAboveClassCap: replaying a barrier whose harvest pushed the
// class over its cap must not re-add the seed that harvest evicted.
func TestReplayAboveClassCap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batch := testBatch(classCap+1, 0)
	if added, err := st.Harvest("c1", "boom", "fp-test", batch); err != nil || added != classCap+1 {
		t.Fatalf("harvest: added=%d err=%v, want %d", added, err, classCap+1)
	}
	if n := st.Len(); n != classCap {
		t.Fatalf("class holds %d entries, want the cap %d", n, classCap)
	}
	wantList := st.List("", "")
	wantJournal := journalSize(t, dir)

	added, err := st.Harvest("c1", "boom", "fp-test", batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("replay above the class cap added %d observations, want 0", added)
	}
	if n := st.Len(); n != classCap {
		t.Fatalf("replay moved Len to %d, want %d", n, classCap)
	}
	if !reflect.DeepEqual(st.List("", ""), wantList) {
		t.Fatal("replay changed the listed entries")
	}
	if got := journalSize(t, dir); got != wantJournal {
		t.Fatalf("replay grew the journal from %d to %d bytes", wantJournal, got)
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
// in counter digits — the store grows with campaigns, not observations.
// Both counts are past historyCap, so the frontier history is full in both.
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
	// All campaigns harvested the same 32 distinct seeds.
	re, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Len(); n != 32 {
		t.Fatalf("store has %d entries, want 32", n)
	}
	for _, e := range re.List("", "") {
		if e.Harvests != campaigns {
			t.Errorf("entry %s: Harvests = %d, want %d", e.ID, e.Harvests, campaigns)
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
	// Store B absorbs the same seeds from two other campaigns in a
	// different batch split: same content, different history. (One
	// campaign delivering batch[:5] after batch[5:] would be a replay.)
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

func TestFrontierDiff(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	before := st.Frontier()

	// No change yet: diffing against the current frontier is empty.
	d, err := st.Diff(before.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed) != 0 || d.Current != before.ID {
		t.Fatalf("self-diff not empty: %+v", d)
	}

	if _, err := st.Harvest("c2", "boom", "fp-test", testBatch(5, 100)); err != nil {
		t.Fatal(err)
	}
	d, err = st.Diff(before.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current == before.ID || len(d.Changed) != 1 {
		t.Fatalf("diff after growth: current=%s changed=%+v", d.Current, d.Changed)
	}
	row := d.Changed[0]
	if row.Target != "boom" || row.Scenario != testFamily || row.Entries != 5 || row.Harvests != 5 {
		t.Fatalf("unexpected delta row: %+v", row)
	}

	if _, err := st.Diff("fr-0000000000000000"); err == nil {
		t.Fatal("Diff accepted an unknown frontier ID")
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
