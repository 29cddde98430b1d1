package corpus

import (
	"fmt"
	"hash/fnv"
	"sort"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
)

// Fingerprint keys engine/options compatibility: seeds only transfer
// between campaigns that run the same target under the same stimulus
// semantics. Variant changes the training derivation and Bugless changes
// the design under test, so each gets its own corpus class; everything
// else (shards, scheduling, iteration counts) only reshapes streams and
// keeps seeds meaningful.
func Fingerprint(target string, variant gen.Variant, bugless bool) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d\x00%t", target, variant, bugless)
	return fmt.Sprintf("fp-%016x", h.Sum64())
}

// Snapshot is a deterministic view of one (target, fingerprint) corpus
// class, optionally restricted to a set of scenario families. Its ID is a
// content hash over what a warm start reads of each contributing entry —
// its ID and its best observation's evidence, not the observation's
// provenance — so two stores with the same entries produce the same
// snapshot ID, and a store that gained, lost or improved an entry produces
// a different one.
type Snapshot struct {
	ID          string  `json:"id"`
	Target      string  `json:"target"`
	Fingerprint string  `json:"fingerprint"`
	Entries     []Entry `json:"entries"`
}

// WarmSet is a resolved warm-start: the snapshot it was derived from, the
// seed set (sorted by selection order, capped) and the per-family frontier
// prior. It is a pure function of (snapshot content, campaign seed) — see
// Store.WarmStart.
type WarmSet struct {
	Snapshot string           `json:"snapshot"`
	Seeds    []gen.Seed       `json:"seeds,omitempty"`
	Prior    []scenario.Prior `json:"prior,omitempty"`
}

// View captures the deterministic snapshot of one corpus class. families
// restricts the view to entries whose scenario family is in the set (nil
// means all families).
func (st *Store) View(target, fingerprint string, families []string) Snapshot {
	allowed := map[string]bool{}
	for _, f := range families {
		allowed[f] = true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := Snapshot{Target: target, Fingerprint: fingerprint}
	for _, e := range st.classes[class{target, fingerprint}] {
		if len(families) == 0 || allowed[e.Scenario] {
			snap.Entries = append(snap.Entries, *e)
		}
	}
	sortEntries(snap.Entries)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s", target, fingerprint)
	for _, e := range snap.Entries {
		fmt.Fprintf(h, "\x00%s %t %d", e.ID, e.Best.Finding, e.Best.Points)
	}
	snap.ID = fmt.Sprintf("cs-%016x", h.Sum64())
	return snap
}

// WarmStart resolves a warm-start set for a campaign: the top max entries
// of the snapshot by evidence (the order the class cap keeps), in
// an order shuffled deterministically from (snapshot ID, campaign seed),
// plus a frontier prior over the whole snapshot: per family, its entries,
// their summed best gain and how many of them found a bug. Everything is a
// pure function of the snapshot content and campaignSeed: resolving the
// same snapshot for the same campaign always yields the same set, which is
// what lets the engine checkpoint the result and keep byte-identical
// resume. max <= 0 selects DefaultWarmStartMax.
func (st *Store) WarmStart(target, fingerprint string, families []string, campaignSeed int64, max int) WarmSet {
	if max <= 0 {
		max = DefaultWarmStartMax
	}
	snap := st.View(target, fingerprint, families)
	ws := WarmSet{Snapshot: snap.ID}

	ranked := make([]*Entry, len(snap.Entries))
	for i := range snap.Entries {
		ranked[i] = &snap.Entries[i]
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].outranks(ranked[j]) })
	if len(ranked) > max {
		ranked = ranked[:max]
	}
	// Deterministic Fisher-Yates over the selection so the order the engine
	// deals seeds to shards — and therefore the replay schedule — depends
	// on the campaign seed, not on corpus insertion history alone.
	h := fnv.New64a()
	h.Write([]byte(snap.ID))
	x := h.Sum64() ^ uint64(campaignSeed)
	for i := len(ranked) - 1; i > 0; i-- {
		x = gen.SplitMix64(x)
		j := int(x % uint64(i+1))
		ranked[i], ranked[j] = ranked[j], ranked[i]
	}
	for _, e := range ranked {
		ws.Seeds = append(ws.Seeds, e.Seed)
	}
	for _, r := range familyRows(snap.Entries) {
		ws.Prior = append(ws.Prior, scenario.Prior{Name: r.Scenario, Picks: r.Entries, Points: r.Points, Findings: r.Findings})
	}
	return ws
}

// FrontierFamily is one (target, scenario family) row of the coverage
// frontier, computed from the entries the store keeps: how many there are,
// their summed and largest best gain, and how many of their best
// observations found a bug.
type FrontierFamily struct {
	Target     string `json:"target"`
	Scenario   string `json:"scenario"`
	Entries    int    `json:"entries"`
	Points     int    `json:"points"`
	BestPoints int    `json:"best_points"`
	Findings   int    `json:"findings"`
}

// Frontier is the store's current coverage frontier: per-(target, family)
// rows under a content-hash ID.
type Frontier struct {
	ID       string           `json:"id"`
	Entries  int              `json:"entries"`
	Families []FrontierFamily `json:"families"`
}

// familyRows aggregates entries into one row per (target, scenario family),
// sorted by target and then family.
func familyRows(entries []Entry) []FrontierFamily {
	var rows []FrontierFamily
	at := map[[2]string]int{}
	for i := range entries {
		e := &entries[i]
		k := [2]string{e.Target, e.Scenario}
		j, ok := at[k]
		if !ok {
			j = len(rows)
			at[k] = j
			rows = append(rows, FrontierFamily{Target: e.Target, Scenario: e.Scenario})
		}
		r := &rows[j]
		r.Entries++
		r.Points += e.Best.Points
		r.BestPoints = max(r.BestPoints, e.Best.Points)
		if e.Best.Finding {
			r.Findings++
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Target != rows[j].Target {
			return rows[i].Target < rows[j].Target
		}
		return rows[i].Scenario < rows[j].Scenario
	})
	return rows
}

// Frontier returns the current coverage frontier.
func (st *Store) Frontier() Frontier {
	st.mu.Lock()
	entries := st.sortedEntriesLocked()
	st.mu.Unlock()
	fr := Frontier{Entries: len(entries), Families: familyRows(entries)}
	h := fnv.New64a()
	for _, f := range fr.Families {
		fmt.Fprintf(h, "%s\x00%s\x00%d %d %d %d\x00", f.Target, f.Scenario, f.Entries, f.Points, f.BestPoints, f.Findings)
	}
	fr.ID = fmt.Sprintf("fr-%016x", h.Sum64())
	return fr
}
