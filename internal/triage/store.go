package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
)

// StoreVersion guards the findings-store file format against drift.
// Version 2 added the scenario family to bug signatures. Open accepts only
// this version: a pre-scenario version-1 store is refused, as is any bug
// without its corpus_entry provenance.
const StoreVersion = 2

// Store is the persistent triaged-findings store: raw findings go in,
// deduplicated bug clusters come out, and every mutation is atomically
// checkpointed to one JSON file (when a path is configured). A Store is
// safe for concurrent use — campaigns add findings from their own
// goroutines while HTTP handlers read the triage view.
type Store struct {
	mu   sync.Mutex
	path string // "" = in-memory only
	bugs map[Signature]*Bug
	// raw counts distinct (campaign, iteration) occurrences — every raw
	// finding campaigns reported, duplicates across seeds/campaigns
	// included, idempotent replays excluded.
	raw int
}

// storeFile is the on-disk shape.
type storeFile struct {
	Version int `json:"version"`
	Raw     int `json:"raw_findings"`
	// Bugs are sorted by signature so saves are byte-deterministic.
	Bugs []bugFile `json:"bugs"`
}

// bugFile is Bug plus its occurrence keys (unexported in memory).
type bugFile struct {
	Bug
	Occurrences []string `json:"occurrences"`
}

// Open loads the store at path, creating an empty one if the file does not
// exist yet. An empty path yields a purely in-memory store (Add never
// touches disk).
func Open(path string) (*Store, error) {
	s := &Store{path: path, bugs: make(map[Signature]*Bug)}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("triage: read store: %w", err)
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("triage: parse store %s: %w", path, err)
	}
	if f.Version != StoreVersion {
		return nil, fmt.Errorf("triage: store %s has version %d, want %d", path, f.Version, StoreVersion)
	}
	s.raw = f.Raw
	for i := range f.Bugs {
		b := f.Bugs[i].Bug
		b.occurrences = make(map[string]bool, len(f.Bugs[i].Occurrences))
		for _, k := range f.Bugs[i].Occurrences {
			b.occurrences[k] = true
		}
		b.Count = len(b.occurrences)
		if b.CorpusEntry == "" {
			return nil, fmt.Errorf("triage: store %s: bug %q has an empty corpus_entry", path, b.Signature)
		}
		s.bugs[b.Signature] = &b
	}
	return s, nil
}

// Add triages one batch of raw findings from a campaign, deduplicating them
// into bug clusters, and persists the store. It returns how many findings
// were new (campaign, iteration) occurrences and how many opened a new
// cluster (first-ever sightings). Re-adding an occurrence the store has
// already absorbed is a complete no-op — it moves neither the raw counter
// nor any cluster — so event replay after an unclean restart cannot
// inflate counts; callers keeping their own raw-finding tallies should
// likewise advance them by newOccurrences, not len(findings).
func (s *Store) Add(campaignID, target string, campaignSeed int64, findings ...core.Finding) (newOccurrences, newBugs int, err error) {
	if len(findings) == 0 {
		return 0, 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range findings {
		f := &findings[i]
		sig := Compute(target, f)
		b, ok := s.bugs[sig]
		if !ok {
			b = newBug(sig, target, f)
			s.bugs[sig] = b
			newBugs++
		}
		if b.record(Occurrence{Campaign: campaignID, Seed: campaignSeed, Iteration: f.Iteration}) {
			newOccurrences++
			s.raw++
		}
	}
	if newOccurrences == 0 && newBugs == 0 {
		return 0, 0, nil
	}
	return newOccurrences, newBugs, s.saveLocked()
}

// Bugs returns the triaged view: every cluster, most-seen first (ties by
// signature, so the order is deterministic).
func (s *Store) Bugs() []Bug {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Bug, 0, len(s.bugs))
	for _, b := range s.bugs {
		cp := *b
		cp.occurrences = nil // private; Count/Campaigns/Seeds summarise it
		cp.Components = append([]string(nil), b.Components...)
		cp.BugLabels = append([]string(nil), b.BugLabels...)
		cp.Campaigns = append([]string(nil), b.Campaigns...)
		cp.Seeds = append([]int64(nil), b.Seeds...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Stats returns the store's raw-finding and cluster counts.
func (s *Store) Stats() (raw, bugs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raw, len(s.bugs)
}

// saveLocked atomically rewrites the backing file. Callers hold s.mu.
func (s *Store) saveLocked() error {
	if s.path == "" {
		return nil
	}
	f := storeFile{Version: StoreVersion, Raw: s.raw, Bugs: make([]bugFile, 0, len(s.bugs))}
	for _, b := range s.bugs {
		occ := make([]string, 0, len(b.occurrences))
		for k := range b.occurrences {
			occ = append(occ, k)
		}
		sort.Strings(occ)
		f.Bugs = append(f.Bugs, bugFile{Bug: *b, Occurrences: occ})
	}
	sort.Slice(f.Bugs, func(i, j int) bool { return f.Bugs[i].Signature < f.Bugs[j].Signature })
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("triage: encode store: %w", err)
	}
	if err := atomicfile.Write(s.path, data); err != nil {
		return fmt.Errorf("triage: write store: %w", err)
	}
	return nil
}
