// Package triage deduplicates and clusters raw campaign findings into
// triaged bug reports. A long fuzzing campaign rediscovers the same
// underlying vulnerability many times — different seeds, iterations and
// stimuli reaching the same leak through the same site — and the paper's
// reporting pipeline (like SpecFuzz's aggregation of thousands of raw traps
// and Shesha's clustering by microarchitectural origin) collapses them
// before a human ever looks. The unit of collapse is the Signature: a
// stable key over the finding's normalized bug class and leak site, and
// over nothing that varies across rediscoveries.
//
// The Store persists the triaged view as a single JSON file via
// internal/atomicfile, so a crash never corrupts it and a server restart
// resumes triage exactly where it stopped. It keeps one watermark per
// campaign, the highest iteration it has absorbed a finding from: a
// campaign delivers at most one finding per iteration, in iteration order,
// and a resumed campaign re-delivers a byte-identical prefix, so replaying
// its event stream — e.g. after an unclean shutdown re-runs barriers the
// store already absorbed — never inflates counts. A bug's other fields are
// counts, sets and a least example, so the store does not depend on the
// order in which concurrent campaigns' barriers arrive.
package triage

import (
	"sort"
	"strings"

	"dejavuzz/internal/core"
)

// Signature identifies a triaged bug: the target name joined with the
// finding's stable identity fields (core.Finding.SignatureInputs — kind,
// attack type, window class, scenario family, leak-site components,
// mechanism witnesses). It is a readable '|'-separated string, identical
// for every rediscovery of the same bug regardless of campaign seed or
// iteration count.
type Signature string

// Compute derives the signature for one finding on one target.
func Compute(target string, f *core.Finding) Signature {
	return Signature(target + "|" + strings.Join(f.SignatureInputs(), "|"))
}

// Bug is one triaged bug report: the cluster of all raw findings sharing a
// signature, with provenance.
type Bug struct {
	Signature  Signature `json:"signature"`
	Target     string    `json:"target"`
	Kind       string    `json:"kind"`
	AttackType string    `json:"attack_type"`
	Window     string    `json:"window"`
	Scenario   string    `json:"scenario"`
	Components []string  `json:"components"`
	BugLabels  []string  `json:"bug_labels,omitempty"`
	// Count is the number of raw findings the cluster absorbed.
	Count int `json:"count"`
	// Campaigns and Seeds are the sorted distinct campaign IDs and campaign
	// seeds the bug was observed under — the cross-seed dedup evidence.
	Campaigns []string `json:"campaigns"`
	Seeds     []int64  `json:"seeds"`
	// Example is the signature's finding with the least (campaign,
	// iteration) under the corpus's campaign order (corpus.Origin.Before),
	// so it does not depend on which campaign reached its barrier first. It
	// is a concrete reproducer: its Seed regenerates the stimulus.
	Example core.Finding `json:"example"`
	// ExampleCampaign is the campaign the example came from. A store
	// written before the field existed leaves it empty, which sorts first,
	// so such an example is kept.
	ExampleCampaign string `json:"example_campaign"`
	// CorpusEntry is the persistent-corpus entry ID of the example's
	// (target, seed) pair — the provenance link into dvz-server's
	// GET /corpus listing. The ID is a pure content hash, so it is valid
	// whether or not the corpus currently retains the entry.
	CorpusEntry string `json:"corpus_entry,omitempty"`
}

func insertString(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertInt64(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// newBug builds the cluster head for a signature from its first finding;
// the caller sets the example.
func newBug(sig Signature, target string, f *core.Finding) *Bug {
	in := f.SignatureInputs()
	return &Bug{
		Signature:  sig,
		Target:     target,
		Kind:       in[0],
		AttackType: in[1],
		Window:     in[2],
		Scenario:   in[3],
		Components: splitPlus(in[4]),
		BugLabels:  splitPlus(in[5]),
	}
}

func splitPlus(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "+")
}
