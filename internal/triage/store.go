package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
	"dejavuzz/internal/corpus"
)

// StoreVersion guards the findings-store file format against drift.
// Version 2 added the scenario family to bug signatures; version 3
// replaced each bug's occurrence keys with per-campaign watermarks. Open
// accepts only this version.
const StoreVersion = 3

// Store is the persistent triaged-findings store: raw findings go in,
// deduplicated bug clusters come out, and every mutation is atomically
// checkpointed to one JSON file (when a path is configured). A Store is
// safe for concurrent use — campaigns add findings from their own
// goroutines while HTTP handlers read the triage view.
type Store struct {
	mu   sync.Mutex
	path string // "" = in-memory only
	bugs map[Signature]*Bug
	// watermarks maps each campaign to the highest iteration whose finding
	// the store has absorbed; findings at or below it are replays.
	watermarks map[string]int
	// raw counts every raw finding campaigns reported, duplicates across
	// seeds/campaigns included, replays excluded.
	raw int
}

// storeFile is the on-disk shape.
type storeFile struct {
	Version    int            `json:"version"`
	Raw        int            `json:"raw_findings"`
	Watermarks map[string]int `json:"watermarks"`
	// Bugs are sorted by signature so saves are byte-deterministic.
	Bugs []Bug `json:"bugs"`
}

// Open loads the store at path, creating an empty one if the file does not
// exist yet. An empty path yields a purely in-memory store (Add never
// touches disk). A store of another version, a negative watermark, a bug
// with a count below 1 or without its corpus_entry provenance is refused.
func Open(path string) (*Store, error) {
	s := &Store{path: path, bugs: make(map[Signature]*Bug), watermarks: make(map[string]int)}
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
	negative := 0
	for _, w := range f.Watermarks {
		if w < 0 {
			negative++
		}
	}
	if negative > 0 {
		return nil, fmt.Errorf("triage: store %s: watermarks hold %d negative iterations", path, negative)
	}
	if f.Watermarks != nil {
		s.watermarks = f.Watermarks
	}
	s.raw = f.Raw
	for i := range f.Bugs {
		b := f.Bugs[i]
		if b.Count < 1 {
			return nil, fmt.Errorf("triage: store %s: bug %q has count %d, want at least 1", path, b.Signature, b.Count)
		}
		if b.CorpusEntry == "" {
			return nil, fmt.Errorf("triage: store %s: bug %q has an empty corpus_entry", path, b.Signature)
		}
		if err := b.Example.Seed.Validate(); err != nil {
			return nil, fmt.Errorf("triage: store %s: bug %q example: %w", path, b.Signature, err)
		}
		s.bugs[b.Signature] = &b
	}
	return s, nil
}

// Add triages one batch of raw findings from a campaign, deduplicating them
// into bug clusters, and persists the store. It returns how many findings
// it absorbed and how many opened a new cluster (first-ever sightings).
// A finding at or below its campaign's watermark is a replay — event
// replay after an unclean restart re-delivers a prefix of the campaign's
// iteration-ordered findings — and is skipped without moving the raw
// counter or any cluster; callers keeping their own raw-finding tallies
// should likewise advance them by added, not len(findings).
func (s *Store) Add(campaignID, target string, campaignSeed int64, findings ...core.Finding) (added, newBugs int, err error) {
	if len(findings) == 0 {
		return 0, 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range findings {
		f := &findings[i]
		if w, ok := s.watermarks[campaignID]; ok && f.Iteration <= w {
			continue
		}
		s.watermarks[campaignID] = f.Iteration
		sig := Compute(target, f)
		b, ok := s.bugs[sig]
		if !ok {
			b = newBug(sig, target, f)
			s.bugs[sig] = b
			newBugs++
		}
		if !ok || (corpus.Origin{Campaign: campaignID, Iteration: f.Iteration}).Before(
			corpus.Origin{Campaign: b.ExampleCampaign, Iteration: b.Example.Iteration}) {
			b.Example, b.ExampleCampaign, b.CorpusEntry = *f, campaignID, corpus.EntryID(target, f.Seed)
		}
		b.Count++
		b.Campaigns = insertString(b.Campaigns, campaignID)
		b.Seeds = insertInt64(b.Seeds, campaignSeed)
		added++
		s.raw++
	}
	if added == 0 {
		return 0, 0, nil
	}
	return added, newBugs, s.saveLocked()
}

// Bugs returns the triaged view: every cluster, most-seen first (ties by
// signature, so the order is deterministic).
func (s *Store) Bugs() []Bug {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Bug, 0, len(s.bugs))
	for _, b := range s.bugs {
		cp := *b
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
	f := storeFile{Version: StoreVersion, Raw: s.raw, Watermarks: s.watermarks, Bugs: make([]Bug, 0, len(s.bugs))}
	for _, b := range s.bugs {
		f.Bugs = append(f.Bugs, *b)
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
