// Package corpus is the persistent cross-campaign corpus service: it
// harvests interesting seeds (coverage keepers and finding producers) from
// campaign merge barriers, keys them by target and engine-compatibility
// fingerprint, and resolves deterministic warm-start sets for future
// campaigns on the same target.
//
// Each entry holds one fact besides its seed: its best observation under
// one total order (a finding first, then the larger coverage gain, then
// the earlier origin; see Observation). Folding in an observation keeps the
// better of the two, and each (target, fingerprint) class then keeps the
// classCap entries with the most evidence. An entry the cap evicts has
// classCap entries ranked above it, and ranks only rise, so re-delivering
// an observation it already absorbed cannot bring it back. Applying an
// observation is therefore idempotent and commutative: the store is a
// function of the set of observations it has absorbed, whatever order
// concurrent campaigns' barriers arrive in, and a barrier re-drained after
// an unclean restart changes nothing.
//
// Persistence is a compacted snapshot (corpus.json, replaced atomically)
// plus an append-only redo journal (journal.ndjson) holding one record per
// harvest that changed the store: the harvested batch itself. Harvest
// appends the record before it changes the store, through the same apply
// function Open uses to replay the journal over the snapshot. A crash
// mid-append leaves at most one torn trailing line, which replay discards
// whole; the server re-drains that barrier. A record a compaction already
// folded into the snapshot replays as a no-op.
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
	// storeVersion guards the corpus.json format. Version 3 replaced each
	// entry's running sums and first-arrival provenance, and the store's
	// per-campaign watermarks and frontier history, with one best
	// observation per entry.
	storeVersion = 3
	snapshotFile = "corpus.json"
	journalFile  = "journal.ndjson"
	// compactAfter bounds journal growth: once this many harvest records
	// accumulate the journal folds into a fresh corpus.json and truncates.
	compactAfter = 512
	// classCap bounds entries per (target, fingerprint) class; the entries
	// with the worst best observations are evicted first.
	classCap = 1024
)

// DefaultWarmStartMax is the default warm-start set size. It is well under
// the engine's merged-corpus cap so warm seeds never crowd out a
// campaign's own discoveries.
const DefaultWarmStartMax = 32

// Origin locates an observation: the campaign that made it and the
// iteration it was made at.
type Origin struct {
	Campaign  string `json:"campaign"`
	Iteration int    `json:"iteration"`
}

// Before reports whether o comes before p in the corpus's campaign order:
// by campaign ID, shorter first and then bytewise, so the server's c<N> IDs
// sort by N; then by iteration. The triage store picks a bug's example by
// the same order.
func (o Origin) Before(p Origin) bool {
	if len(o.Campaign) != len(p.Campaign) {
		return len(o.Campaign) < len(p.Campaign)
	}
	if o.Campaign != p.Campaign {
		return o.Campaign < p.Campaign
	}
	return o.Iteration < p.Iteration
}

// Observation is one harvest of a seed: whether its iteration produced a
// finding, the coverage points it gained, and where it was made.
type Observation struct {
	Finding bool `json:"finding"`
	Points  int  `json:"points"`
	Origin
}

// better reports whether o ranks above p: a finding first, then the larger
// coverage gain, then the earlier origin. The order is total, so the best
// of a set of observations does not depend on the order they arrive in.
func (o Observation) better(p Observation) bool {
	if o.Finding != p.Finding {
		return o.Finding
	}
	if o.Points != p.Points {
		return o.Points > p.Points
	}
	return o.Origin.Before(p.Origin)
}

// check refuses an observation no harvest could have made.
func (o Observation) check() error {
	switch {
	case o.Campaign == "":
		return errors.New("campaign is empty")
	case o.Iteration < 0:
		return fmt.Errorf("iteration is %d, want >= 0", o.Iteration)
	case o.Points < 0:
		return fmt.Errorf("points is %d, want >= 0", o.Points)
	}
	return nil
}

// Entry is one persisted corpus seed with its best observation. The ID is
// a content hash of (target, seed), so the same stimulus harvested by
// different campaigns folds into one entry of its class.
type Entry struct {
	ID          string      `json:"id"`
	Target      string      `json:"target"`
	Scenario    string      `json:"scenario"`
	Fingerprint string      `json:"fingerprint"`
	Seed        gen.Seed    `json:"seed"`
	Best        Observation `json:"best"`
}

// outranks orders entries for the class cap and warm-start selection: by
// their best observation's evidence, then by ID. Provenance plays no part,
// so the campaign IDs a server happened to hand out cannot move a warm
// start.
func (e *Entry) outranks(f *Entry) bool {
	a, b := e.Best, f.Best
	a.Origin, b.Origin = Origin{}, Origin{}
	if a != b {
		return a.better(b)
	}
	return e.ID < f.ID
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

// storeFile is the corpus.json serialisation, entries sorted (see
// sortEntries) so a compacted store round-trips byte-identically.
type storeFile struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// journalRec is one redo-journal line: one harvested batch, as Harvest
// received it.
type journalRec struct {
	Campaign    string               `json:"campaign"`
	Target      string               `json:"target"`
	Fingerprint string               `json:"fingerprint"`
	Batch       []core.HarvestedSeed `json:"batch"`
}

// class names one (target, fingerprint) corpus class.
type class struct{ target, fingerprint string }

// Store is a corpus database rooted at one directory. All methods are safe
// for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex
	// classes holds each class's entries by ID.
	classes    map[class]map[string]*Entry
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
	st := &Store{dir: dir, classes: make(map[class]map[string]*Entry), writeJournal: (*os.File).Write}
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

// classLocked returns a class's entry map, creating it if needed.
func (st *Store) classLocked(c class) map[string]*Entry {
	m := st.classes[c]
	if m == nil {
		m = make(map[string]*Entry)
		st.classes[c] = m
	}
	return m
}

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
	for i := range f.Entries {
		e := f.Entries[i]
		// Warm-start sets are built from these seeds: refuse a malformed one
		// here rather than in a campaign shard.
		if err := e.Seed.Validate(); err != nil {
			return fmt.Errorf("corpus: %s: entry %q: %w", snapshotFile, e.ID, err)
		}
		if err := e.Best.check(); err != nil {
			return fmt.Errorf("corpus: %s: entry %q: best: %w", snapshotFile, e.ID, err)
		}
		m := st.classLocked(class{e.Target, e.Fingerprint})
		if m[e.ID] != nil {
			return fmt.Errorf("corpus: %s: entry %q is listed twice in its class", snapshotFile, e.ID)
		}
		m[e.ID] = &e
	}
	return nil
}

// replayJournal applies the redo journal over the loaded snapshot and
// returns how many records it read, and whether it dropped a torn final
// line — the only debris a crashed append can leave; an undecodable line
// anywhere else, or a decodable record that no harvest could have written,
// means real corruption and is an error. Records a compaction folded into
// the snapshot before crashing ahead of the truncate apply as no-ops.
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
		st.applyLocked(&rec, nil) // without a persist step, applying cannot fail
	}
	if err := sc.Err(); err != nil {
		return 0, false, fmt.Errorf("corpus: %w", err)
	}
	return read, pendingErr != nil, nil
}

// validate refuses a record no harvest could have written. Harvest journals
// only a batch that changes the store, so every record names a target and
// holds at least one seed; a version-2 put/del line decodes to a record with
// neither and is refused here rather than replayed as a no-op.
func (rec *journalRec) validate() error {
	switch {
	case rec.Campaign == "":
		return errors.New("record has an empty campaign")
	case rec.Target == "":
		return fmt.Errorf("campaign %q: record has an empty target", rec.Campaign)
	case len(rec.Batch) == 0:
		return fmt.Errorf("campaign %q: record has an empty batch", rec.Campaign)
	}
	for i := range rec.Batch {
		h := &rec.Batch[i]
		if err := rec.observation(h).check(); err != nil {
			return fmt.Errorf("campaign %q: batch[%d]: %w", rec.Campaign, i, err)
		}
		if err := h.Seed.Validate(); err != nil {
			return fmt.Errorf("campaign %q: batch[%d] (entry %q): %w", rec.Campaign, i, EntryID(rec.Target, h.Seed), err)
		}
	}
	return nil
}

// observation is what one harvested seed of the record tells the store.
func (rec *journalRec) observation(h *core.HarvestedSeed) Observation {
	return Observation{Finding: h.Finding, Points: h.NewPoints, Origin: Origin{Campaign: rec.Campaign, Iteration: h.Iteration}}
}

// applyLocked folds one harvested batch into the store and returns how many
// entries it created or improved and kept. Harvest and journal replay both
// go through it. When the batch changes the store, persist (Harvest's
// journal append; nil on replay) runs first, and if it fails the store is
// left as it was.
func (st *Store) applyLocked(rec *journalRec, persist func() error) (int, error) {
	c := class{rec.Target, rec.Fingerprint}
	cur := st.classes[c]
	staged := make(map[string]*Entry)
	size := len(cur) // the class's size with the staged entries in
	for i := range rec.Batch {
		h := &rec.Batch[i]
		obs := rec.observation(h)
		id := EntryID(rec.Target, h.Seed)
		e := staged[id]
		if e == nil {
			e = cur[id]
		}
		switch {
		case e == nil:
			staged[id] = &Entry{ID: id, Target: rec.Target, Scenario: gen.ScenarioName(h.Seed),
				Fingerprint: rec.Fingerprint, Seed: h.Seed, Best: obs}
			size++
		case obs.better(e.Best):
			cp := *e
			cp.Best = obs
			staged[id] = &cp
		}
	}
	// Hold the class to classCap: rank it with the staged entries in and
	// evict everything past the cap. A staged entry evicted here changes
	// nothing.
	var del []string
	if size > classCap {
		ranked := make([]*Entry, 0, size)
		for id, e := range cur {
			if staged[id] == nil {
				ranked = append(ranked, e)
			}
		}
		for _, e := range staged {
			ranked = append(ranked, e)
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].outranks(ranked[j]) })
		for _, e := range ranked[classCap:] {
			delete(staged, e.ID)
			if cur[e.ID] != nil {
				del = append(del, e.ID)
			}
		}
	}
	if len(staged) == 0 {
		// Nothing was kept, so nothing was evicted either: each eviction
		// makes room for a staged entry that outranks it.
		return 0, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return 0, err
		}
	}
	m := st.classLocked(c)
	for id, e := range staged {
		m[id] = e
	}
	for _, id := range del {
		delete(m, id)
	}
	return len(staged), nil
}

// sortEntries orders entries by ID, then target and fingerprint: the one
// order listings and corpus.json use.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := &es[i], &es[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Fingerprint < b.Fingerprint
	})
}

// sortedEntriesLocked returns copies of all entries, sorted.
func (st *Store) sortedEntriesLocked() []Entry {
	out := []Entry{}
	for _, m := range st.classes {
		for _, e := range m {
			out = append(out, *e)
		}
	}
	sortEntries(out)
	return out
}

// compactLocked folds the current state into corpus.json atomically and
// truncates the journal. Crash windows are safe at every point: over the
// new snapshot, the old journal's records replay as no-ops.
func (st *Store) compactLocked() error {
	f := storeFile{Version: storeVersion, Entries: st.sortedEntriesLocked()}
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
// into the store and returns how many entries it created or improved and
// kept. A batch that changes nothing — a barrier re-drained after an
// unclean restart included — returns 0 and leaves the journal alone. A
// batch that changes the store becomes one journal record, appended before
// the store changes: if the append fails, Harvest returns 0 with the error
// and the store is as it was. A partial append (a full disk) is truncated
// away so the next harvest appends a clean record; if even the truncate
// fails, Harvest returns both errors and refuses every further harvest
// until the store is reopened. An empty batch changes nothing; any other
// batch Open could not replay is refused.
func (st *Store) Harvest(campaign, target, fingerprint string, batch []core.HarvestedSeed) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	rec := &journalRec{Campaign: campaign, Target: target, Fingerprint: fingerprint, Batch: batch}
	if err := rec.validate(); err != nil {
		return 0, fmt.Errorf("corpus: harvest refused: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journalErr != nil {
		return 0, st.journalErr
	}
	n, err := st.applyLocked(rec, func() error { return st.appendLocked(rec) })
	if err != nil || st.journalLen < compactAfter {
		return n, err
	}
	return n, st.compactLocked()
}

// appendLocked appends one record to the journal, truncating a partial
// append away.
func (st *Store) appendLocked(rec *journalRec) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	n, err := st.writeJournal(st.journal, append(line, '\n'))
	if err != nil {
		if terr := st.journal.Truncate(st.journalSize); terr != nil {
			st.journalErr = fmt.Errorf("corpus: journal append failed and its partial record could not be removed (reopen the store): %w",
				errors.Join(err, terr))
			return st.journalErr
		}
		return fmt.Errorf("corpus: %w", err)
	}
	st.journalSize += int64(n)
	st.journalLen++
	return nil
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
	n := 0
	for _, m := range st.classes {
		n += len(m)
	}
	return n
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
