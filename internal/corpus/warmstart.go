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
// content hash over the contributing entry IDs, so two stores holding the
// same seeds produce the same snapshot ID and a store that gained or lost
// a seed produces a different one.
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
	for _, e := range st.entries {
		if e.Target != target || e.Fingerprint != fingerprint {
			continue
		}
		if len(families) > 0 && !allowed[e.Scenario] {
			continue
		}
		snap.Entries = append(snap.Entries, *e)
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].ID < snap.Entries[j].ID })
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s", target, fingerprint)
	for _, e := range snap.Entries {
		fmt.Fprintf(h, "\x00%s", e.ID)
	}
	snap.ID = fmt.Sprintf("cs-%016x", h.Sum64())
	return snap
}

// splitMix64 is the standard SplitMix64 step — the same deterministic
// stream primitive the generator's seeding uses — so warm-start selection
// needs no math/rand state.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WarmStart resolves a warm-start set for a campaign: the top max entries
// of the snapshot by evidence (findings first, then coverage gain), in an
// order shuffled deterministically from (snapshot ID, campaign seed), plus
// a frontier prior aggregated over the whole snapshot. Everything is a
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

	// Selection: rank by evidence, keep the top max.
	ranked := make([]*Entry, len(snap.Entries))
	for i := range snap.Entries {
		ranked[i] = &snap.Entries[i]
	}
	sort.Slice(ranked, func(i, j int) bool { return entryBetter(ranked[i], ranked[j]) })
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
		x = splitMix64(x)
		j := int(x % uint64(i+1))
		ranked[i], ranked[j] = ranked[j], ranked[i]
	}
	for _, e := range ranked {
		ws.Seeds = append(ws.Seeds, e.Seed)
	}

	// Frontier prior: per-family evidence over the whole snapshot (not just
	// the selected seeds), so the scheduler sees everything the corpus
	// knows about family yield on this target.
	agg := map[string]*scenario.Prior{}
	for i := range snap.Entries {
		e := &snap.Entries[i]
		p := agg[e.Scenario]
		if p == nil {
			p = &scenario.Prior{Name: e.Scenario}
			agg[e.Scenario] = p
		}
		p.Picks += e.Harvests
		p.Points += e.Points
		p.Findings += e.Findings
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ws.Prior = append(ws.Prior, *agg[n])
	}
	return ws
}

// FrontierFamily is one (target, scenario family) row of the coverage
// frontier: how much corpus evidence the store holds for it.
type FrontierFamily struct {
	Target     string `json:"target"`
	Scenario   string `json:"scenario"`
	Entries    int    `json:"entries"`
	Harvests   int    `json:"harvests"`
	Points     int    `json:"points"`
	BestPoints int    `json:"best_points"`
	Findings   int    `json:"findings"`
}

// Frontier is the store's current coverage frontier: per-(target, family)
// aggregates with a content-hash ID. The store retains a bounded history
// of distinct frontiers so clients can diff against a frontier they saw
// earlier.
type Frontier struct {
	ID       string           `json:"id"`
	Entries  int              `json:"entries"`
	Families []FrontierFamily `json:"families"`
}

func (st *Store) frontierLocked() Frontier {
	agg := map[[2]string]*FrontierFamily{}
	for _, e := range st.entries {
		key := [2]string{e.Target, e.Scenario}
		f := agg[key]
		if f == nil {
			f = &FrontierFamily{Target: e.Target, Scenario: e.Scenario}
			agg[key] = f
		}
		f.Entries++
		f.Harvests += e.Harvests
		f.Points += e.Points
		if e.BestPoints > f.BestPoints {
			f.BestPoints = e.BestPoints
		}
		f.Findings += e.Findings
	}
	fr := Frontier{Entries: len(st.entries)}
	keys := make([][2]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	h := fnv.New64a()
	for _, k := range keys {
		f := agg[k]
		fr.Families = append(fr.Families, *f)
		fmt.Fprintf(h, "%s\x00%s\x00%d %d %d %d %d\x00",
			f.Target, f.Scenario, f.Entries, f.Harvests, f.Points, f.BestPoints, f.Findings)
	}
	fr.ID = fmt.Sprintf("fr-%016x", h.Sum64())
	return fr
}

// Frontier returns the current coverage frontier.
func (st *Store) Frontier() Frontier {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.frontierLocked()
}

// recordFrontierLocked appends the current frontier to the bounded history
// if it differs from the newest retained one.
func (st *Store) recordFrontierLocked() {
	fr := st.frontierLocked()
	if n := len(st.history); n > 0 && st.history[n-1].ID == fr.ID {
		return
	}
	st.history = append(st.history, fr)
	if len(st.history) > historyCap {
		st.history = st.history[len(st.history)-historyCap:]
	}
}

// FamilyDelta is one changed frontier row in a diff: the per-field
// difference between the current frontier and a historical one.
type FamilyDelta struct {
	Target   string `json:"target"`
	Scenario string `json:"scenario"`
	Entries  int    `json:"entries"`
	Harvests int    `json:"harvests"`
	Points   int    `json:"points"`
	Findings int    `json:"findings"`
}

// FrontierDiff compares the current frontier against a historical frontier
// ID previously returned by Frontier (or an earlier diff). Rows appear for
// every (target, family) whose aggregates changed, with signed deltas.
type FrontierDiff struct {
	Since   string        `json:"since"`
	Current string        `json:"current"`
	Changed []FamilyDelta `json:"changed"`
}

// Diff computes the frontier change since a historical frontier ID. An
// unknown ID — older than the retained history, or never issued — is an
// error the HTTP layer maps to 404.
func (st *Store) Diff(since string) (FrontierDiff, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.frontierLocked()
	d := FrontierDiff{Since: since, Current: cur.ID}
	if since == cur.ID {
		return d, nil
	}
	var old *Frontier
	for i := range st.history {
		if st.history[i].ID == since {
			old = &st.history[i]
			break
		}
	}
	if old == nil {
		return d, fmt.Errorf("corpus: unknown frontier snapshot %q (history keeps the last %d)", since, historyCap)
	}
	type key struct{ target, scenario string }
	oldRows := map[key]FrontierFamily{}
	for _, f := range old.Families {
		oldRows[key{f.Target, f.Scenario}] = f
	}
	keys := map[key]bool{}
	curRows := map[key]FrontierFamily{}
	for _, f := range cur.Families {
		k := key{f.Target, f.Scenario}
		curRows[k] = f
		keys[k] = true
	}
	for k := range oldRows {
		keys[k] = true
	}
	ordered := make([]key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].target != ordered[j].target {
			return ordered[i].target < ordered[j].target
		}
		return ordered[i].scenario < ordered[j].scenario
	})
	for _, k := range ordered {
		o, c := oldRows[k], curRows[k]
		delta := FamilyDelta{
			Target:   k.target,
			Scenario: k.scenario,
			Entries:  c.Entries - o.Entries,
			Harvests: c.Harvests - o.Harvests,
			Points:   c.Points - o.Points,
			Findings: c.Findings - o.Findings,
		}
		if delta.Entries != 0 || delta.Harvests != 0 || delta.Points != 0 || delta.Findings != 0 {
			d.Changed = append(d.Changed, delta)
		}
	}
	return d, nil
}
