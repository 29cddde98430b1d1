// Package corpus is the persistent cross-campaign corpus service: it
// harvests interesting seeds (coverage keepers and finding producers) from
// campaign merge barriers, keys them by target and engine-compatibility
// fingerprint, and resolves deterministic warm-start sets for future
// campaigns on the same target.
//
// Persistence is a compacted snapshot (corpus.json, replaced atomically)
// plus an append-only redo journal (journal.ndjson) holding one record per
// harvest: the post-harvest state of every entry it touched, the entries it
// evicted and its campaign's new watermark. Harvest appends the record
// before it changes the store, then applies it through the same function
// Open uses to replay the journal over the snapshot. A crash mid-append
// leaves at most one torn trailing line, which replay discards whole; the
// server re-drains that barrier.
//
// Replays are recognised by one watermark per campaign: the highest
// iteration the store has absorbed from it. Barriers deliver a campaign's
// harvests in iteration order, and a resumed campaign re-emits a
// byte-identical prefix of what it delivered before, so an observation at
// or below its campaign's watermark is exactly a replay.
//
// The store itself is deliberately outside the engine's determinism
// boundary — it may observe wall-clock time and use maps freely — but
// everything it hands back to a campaign (snapshot IDs, warm-start sets,
// frontier priors) is a pure function of store content and the requesting
// campaign's seed, which is what lets warm-started campaigns keep the
// engine's byte-identity guarantees.
package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

const (
	// storeVersion guards the corpus.json format. Version 2 replaced each
	// entry's observation keys with per-campaign watermarks.
	storeVersion = 2
	snapshotFile = "corpus.json"
	journalFile  = "journal.ndjson"
	// compactAfter bounds journal growth: once this many harvest records
	// accumulate the journal folds into a fresh corpus.json and truncates.
	compactAfter = 512
	// classCap bounds entries per (target, fingerprint) class; the worst
	// entries (fewest findings, least coverage gain) are evicted first.
	classCap = 1024
	// historyCap bounds the retained frontier history used by the
	// /corpus/frontier?since= diff endpoint.
	historyCap = 64
)

// DefaultWarmStartMax is the default warm-start set size. It is well under
// the engine's merged-corpus cap so warm seeds never crowd out a
// campaign's own discoveries.
const DefaultWarmStartMax = 32

// Entry is one persisted corpus seed with its provenance and accumulated
// evidence. The ID is a content hash of (target, seed), so the same
// stimulus harvested by different campaigns folds into one entry.
type Entry struct {
	ID          string   `json:"id"`
	Target      string   `json:"target"`
	Scenario    string   `json:"scenario"`
	Fingerprint string   `json:"fingerprint"`
	Seed        gen.Seed `json:"seed"`

	// BestPoints is the largest single-iteration coverage gain observed;
	// Points accumulates gain across all observations. Harvests counts
	// observations and Findings those that produced a finding.
	BestPoints int `json:"best_points"`
	Points     int `json:"points"`
	Harvests   int `json:"harvests"`
	Findings   int `json:"findings"`

	// FirstCampaign/FirstIteration locate the harvest that created the
	// entry — the provenance link the triage store records on bugs.
	FirstCampaign  string `json:"first_campaign"`
	FirstIteration int    `json:"first_iteration"`
}

// EntryID is the content hash identifying a (target, seed) pair in the
// store. Exported so the triage store can link bug examples to corpus
// entries without holding a store handle.
func EntryID(target string, seed gen.Seed) string {
	enc, err := json.Marshal(seed)
	if err != nil {
		// gen.Seed is a flat struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("corpus: seed unencodable: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(target))
	h.Write([]byte{0})
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// storeFile is the corpus.json serialisation: the per-campaign watermarks,
// entries sorted by ID and the bounded frontier history, so a compacted
// store round-trips byte-identically.
type storeFile struct {
	Version    int            `json:"version"`
	Watermarks map[string]int `json:"watermarks"`
	Entries    []Entry        `json:"entries"`
	History    []Frontier     `json:"history,omitempty"`
}

// journalRec is one redo-journal line: the whole effect of one harvest.
// Put holds the post-harvest state of every entry the harvest touched, Del
// the entries it then evicted (applied after Put), and Through the
// campaign's new watermark. Full entry states make applying a record a
// plain upsert.
type journalRec struct {
	Campaign string   `json:"campaign"`
	Through  int      `json:"through"`
	Put      []Entry  `json:"put,omitempty"`
	Del      []string `json:"del,omitempty"`
}

// Store is a corpus database rooted at one directory. All methods are safe
// for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]*Entry
	// watermarks maps each campaign to the highest iteration the store has
	// absorbed from it; observations at or below it are replays.
	watermarks map[string]int
	history    []Frontier
	journal    *os.File
	journalLen int // records appended since the last compaction
	// journalSize is the journal's length in bytes. A failed append
	// truncates back to it, so a partial record never stays behind for the
	// next append to extend into mid-file corruption.
	journalSize int64
	// journalErr, once set, refuses every further append until the store
	// is reopened: an append failed and its partial record could not be
	// truncated away.
	journalErr error
	// writeJournal appends one record line (os.File.Write; tests inject
	// short writes through it).
	writeJournal func(f *os.File, line []byte) (int, error)
}

// Open loads (or creates) the corpus store in dir: snapshot, journal
// replay with torn-tail tolerance, then an immediate compaction so debris
// from a previous crash is folded away.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	st := &Store{dir: dir, entries: make(map[string]*Entry), watermarks: make(map[string]int),
		writeJournal: (*os.File).Write}
	if err := st.loadSnapshot(); err != nil {
		return nil, err
	}
	replayed, torn, err := st.replayJournal()
	if err != nil {
		return nil, err
	}
	// Compacting also drops a torn tail, which the next append would
	// otherwise extend.
	if replayed > 0 || torn {
		if err := st.compactLocked(); err != nil {
			return nil, err
		}
	}
	j, err := os.OpenFile(st.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	fi, err := j.Stat()
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("corpus: %w", err)
	}
	st.journal, st.journalSize = j, fi.Size()
	return st, nil
}

func (st *Store) snapshotPath() string { return filepath.Join(st.dir, snapshotFile) }
func (st *Store) journalPath() string  { return filepath.Join(st.dir, journalFile) }

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) loadSnapshot() error {
	data, err := os.ReadFile(st.snapshotPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("corpus: %s corrupt: %w", snapshotFile, err)
	}
	if f.Version != storeVersion {
		return fmt.Errorf("corpus: %s has version %d, want %d", snapshotFile, f.Version, storeVersion)
	}
	for c, w := range f.Watermarks {
		if w < 0 {
			return fmt.Errorf("corpus: %s: watermarks[%q] is %d, want >= 0", snapshotFile, c, w)
		}
		st.watermarks[c] = w
	}
	for i := range f.Entries {
		e := f.Entries[i]
		// Warm-start sets are built from these seeds: refuse a malformed one
		// here rather than in a campaign shard.
		if err := e.Seed.Validate(); err != nil {
			return fmt.Errorf("corpus: %s: entry %q: %w", snapshotFile, e.ID, err)
		}
		st.entries[e.ID] = &e
	}
	st.history = f.History
	return nil
}

// replayJournal applies the redo journal over the loaded snapshot and
// returns how many records it read, and whether it dropped a torn final
// line — the only debris a crashed append can leave; an undecodable line anywhere
// else, or a decodable record that no harvest could have written, means
// real corruption and is an error. Records at or below their campaign's
// snapshot watermark were folded into the snapshot by a compaction that
// crashed before truncating the journal, and are skipped.
func (st *Store) replayJournal() (read int, torn bool, err error) {
	f, err := os.Open(st.journalPath())
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var pendingErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line was not the tail: the journal is corrupt, not torn.
			return 0, false, pendingErr
		}
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("corpus: %s corrupt: %w", journalFile, err)
			continue
		}
		if err := rec.validate(); err != nil {
			return 0, false, fmt.Errorf("corpus: %s corrupt: %w", journalFile, err)
		}
		read++
		if w, ok := st.watermarks[rec.Campaign]; ok && rec.Through <= w {
			continue
		}
		st.applyLocked(&rec)
	}
	if err := sc.Err(); err != nil {
		return 0, false, fmt.Errorf("corpus: %w", err)
	}
	return read, pendingErr != nil, nil
}

// validate refuses a record no harvest could have written.
func (rec *journalRec) validate() error {
	if rec.Campaign == "" {
		return fmt.Errorf("record has an empty campaign")
	}
	if rec.Through < 0 {
		return fmt.Errorf("campaign %q: through is %d, want >= 0", rec.Campaign, rec.Through)
	}
	for i := range rec.Put {
		if rec.Put[i].ID == "" {
			return fmt.Errorf("campaign %q: put entry has an empty id", rec.Campaign)
		}
		if err := rec.Put[i].Seed.Validate(); err != nil {
			return fmt.Errorf("campaign %q: put entry %q: %w", rec.Campaign, rec.Put[i].ID, err)
		}
	}
	return nil
}

// applyLocked folds one harvest record into the store. Harvest and journal
// replay both go through it, so a replayed record has exactly the effect
// the live harvest had, frontier history included.
func (st *Store) applyLocked(rec *journalRec) {
	for i := range rec.Put {
		e := rec.Put[i]
		st.entries[e.ID] = &e
	}
	for _, id := range rec.Del {
		delete(st.entries, id)
	}
	st.watermarks[rec.Campaign] = rec.Through
	st.recordFrontierLocked()
}

// sortedEntries returns copies of all entries, sorted by ID.
func (st *Store) sortedEntriesLocked() []Entry {
	out := make([]Entry, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// compactLocked folds the current state into corpus.json atomically and
// truncates the journal. Crash windows are safe at every point: over the
// new snapshot, the old journal's records all fall at or below their
// campaigns' watermarks and replay skips them.
func (st *Store) compactLocked() error {
	f := storeFile{Version: storeVersion, Watermarks: st.watermarks, Entries: st.sortedEntriesLocked(), History: st.history}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := atomicfile.Write(st.snapshotPath(), append(data, '\n')); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if st.journal != nil {
		if err := st.journal.Truncate(0); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		if _, err := st.journal.Seek(0, 0); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	} else if err := os.WriteFile(st.journalPath(), nil, 0o644); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	st.journalLen, st.journalSize = 0, 0
	return nil
}

// Harvest folds one barrier's worth of interesting seeds from a campaign
// into the store and returns how many observations were new. Observations
// at or below the campaign's watermark are replays — a barrier re-drained
// after an unclean restart — and are skipped. The harvest becomes one
// journal record, appended before the store changes: if the append fails,
// Harvest returns 0 with the error and the store is as it was. A partial
// append (a full disk) is truncated away so the next harvest appends a
// clean record; if even the truncate fails, Harvest returns both errors and
// refuses every further harvest until the store is reopened.
func (st *Store) Harvest(campaign, target, fingerprint string, batch []core.HarvestedSeed) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journalErr != nil {
		return 0, st.journalErr
	}
	rec, added := st.harvestRecordLocked(campaign, target, fingerprint, batch)
	if added == 0 {
		return 0, nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("corpus: %w", err)
	}
	n, err := st.writeJournal(st.journal, append(line, '\n'))
	if err != nil {
		if terr := st.journal.Truncate(st.journalSize); terr != nil {
			st.journalErr = fmt.Errorf("corpus: journal append failed and its partial record could not be removed (reopen the store): %w",
				errors.Join(err, terr))
			return 0, st.journalErr
		}
		return 0, fmt.Errorf("corpus: %w", err)
	}
	st.journalSize += int64(n)
	st.journalLen++
	st.applyLocked(rec)
	if st.journalLen >= compactAfter {
		return added, st.compactLocked()
	}
	return added, nil
}

// harvestRecordLocked builds the journal record for one harvest without
// changing the store, and counts the new observations it absorbs.
func (st *Store) harvestRecordLocked(campaign, target, fingerprint string, batch []core.HarvestedSeed) (*journalRec, int) {
	wm, seen := st.watermarks[campaign]
	rec := &journalRec{Campaign: campaign}
	touched := make(map[string]*Entry)
	added := 0
	for _, h := range batch {
		if seen && h.Iteration <= wm {
			continue // replayed barrier
		}
		id := EntryID(target, h.Seed)
		e := touched[id]
		if e == nil {
			if cur := st.entries[id]; cur != nil {
				cp := *cur
				e = &cp
			} else {
				e = &Entry{
					ID:             id,
					Target:         target,
					Scenario:       gen.ScenarioName(h.Seed),
					Fingerprint:    fingerprint,
					Seed:           h.Seed,
					FirstCampaign:  campaign,
					FirstIteration: h.Iteration,
				}
			}
			touched[id] = e
		}
		e.Harvests++
		e.Points += h.NewPoints
		if h.NewPoints > e.BestPoints {
			e.BestPoints = h.NewPoints
		}
		if h.Finding {
			e.Findings++
		}
		if added == 0 || h.Iteration > rec.Through {
			rec.Through = h.Iteration
		}
		added++
	}
	if added == 0 {
		return nil, 0
	}
	for _, e := range touched {
		rec.Put = append(rec.Put, *e)
	}
	sort.Slice(rec.Put, func(i, j int) bool { return rec.Put[i].ID < rec.Put[j].ID })
	rec.Del = st.evictionsLocked(target, fingerprint, touched)
	return rec, added
}

// evictionsLocked returns the IDs a harvest evicts to hold its (target,
// fingerprint) class to classCap once the touched entries are in, lowest
// evidence first.
func (st *Store) evictionsLocked(target, fingerprint string, touched map[string]*Entry) []string {
	inClass := func(e *Entry) bool { return e.Target == target && e.Fingerprint == fingerprint }
	var class []*Entry
	for id, e := range st.entries {
		if touched[id] == nil && inClass(e) {
			class = append(class, e)
		}
	}
	for _, e := range touched {
		if inClass(e) {
			class = append(class, e)
		}
	}
	if len(class) <= classCap {
		return nil
	}
	sort.Slice(class, func(i, j int) bool { return entryWorse(class[i], class[j]) })
	var del []string
	for _, e := range class[:len(class)-classCap] {
		del = append(del, e.ID)
	}
	return del
}

// entryWorse orders entries by ascending evidence (for eviction).
func entryWorse(a, b *Entry) bool {
	if a.Findings != b.Findings {
		return a.Findings < b.Findings
	}
	if a.BestPoints != b.BestPoints {
		return a.BestPoints < b.BestPoints
	}
	if a.Points != b.Points {
		return a.Points < b.Points
	}
	return a.ID > b.ID
}

// entryBetter orders entries by descending evidence (for warm-start
// selection); it is the strict inverse of entryWorse, with ID ascending as
// the final tiebreak so the order is total and deterministic.
func entryBetter(a, b *Entry) bool {
	if a.Findings != b.Findings {
		return a.Findings > b.Findings
	}
	if a.BestPoints != b.BestPoints {
		return a.BestPoints > b.BestPoints
	}
	if a.Points != b.Points {
		return a.Points > b.Points
	}
	return a.ID < b.ID
}

// List returns entry copies sorted by ID, optionally filtered by target
// and scenario family.
func (st *Store) List(target, scenarioFamily string) []Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := st.sortedEntriesLocked()
	if target == "" && scenarioFamily == "" {
		return all
	}
	out := all[:0]
	for _, e := range all {
		if target != "" && e.Target != target {
			continue
		}
		if scenarioFamily != "" && e.Scenario != scenarioFamily {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Len returns the number of entries in the store.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// Close releases the journal handle after a final compaction.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal == nil {
		return nil
	}
	err := st.compactLocked()
	if cerr := st.journal.Close(); err == nil {
		err = cerr
	}
	st.journal = nil
	return err
}
