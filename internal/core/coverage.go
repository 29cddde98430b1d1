package core

import (
	"math/bits"
	"sort"
	"sync"

	"dejavuzz/internal/uarch"
)

// covSlots is the per-module bitmap size: tainted-element counts clamp here.
const covSlots = 256

type covKey struct {
	module string
	count  int
}

// covRow is one census module's points: bit n is set when count n was seen.
type covRow [covSlots / 64]uint64

// covSet is a set of coverage points. A census module's point is a bit in
// that module's row, found with no hashing; points of any other module
// (isadiff's per-register samples, say) and counts outside the rows (only a
// restored checkpoint can hold those) are kept by key.
type covSet struct {
	rows  [uarch.NumCensusModules]covRow
	keyed map[covKey]struct{} // nil until the first keyed point
	n     int
}

// locate returns where a point lives: a row, a word and a bit, or row -1
// when it is kept by key.
func locate(module string, count int) (row, word int, bit uint64) {
	row = uarch.CensusRow(module)
	if row < 0 || uint(count) >= covSlots {
		return -1, 0, 0
	}
	return row, count >> 6, 1 << (count & 63)
}

func (s *covSet) hasKey(k covKey) bool {
	_, ok := s.keyed[k]
	return ok
}

func (s *covSet) addKey(k covKey) {
	if s.keyed == nil {
		s.keyed = make(map[covKey]struct{})
	}
	s.keyed[k] = struct{}{}
	s.n++
}

// add inserts a point and reports whether it was new.
func (s *covSet) add(module string, count int) bool {
	if row, w, bit := locate(module, count); row >= 0 {
		if s.rows[row][w]&bit != 0 {
			return false
		}
		s.rows[row][w] |= bit
		s.n++
		return true
	}
	k := covKey{module: module, count: count}
	if s.hasKey(k) {
		return false
	}
	s.addKey(k)
	return true
}

// covCount normalizes one taint sample into its point's count; ok is false
// for samples that contribute no coverage (zero taints).
func covCount(s uarch.TaintSample) (n int, ok bool) {
	if s.Tainted == 0 {
		return 0, false
	}
	return min(s.Tainted, covSlots-1), true
}

// Coverage is the taint coverage matrix (§4.2.2): every (module,
// tainted-element-count) pair observed during a transient window is one
// coverage point. It is locality-aware (module-level) and
// position-insensitive (counts, not slots).
type Coverage struct {
	mu     sync.Mutex
	points covSet
}

// NewCoverage returns an empty matrix.
func NewCoverage() *Coverage {
	return &Coverage{}
}

// AddFromLog folds a taint log into the matrix and returns how many new
// coverage points it contributed.
func (c *Coverage) AddFromLog(log []uarch.TaintSample) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, s := range log {
		if n, ok := covCount(s); ok && c.points.add(s.Module, n) {
			added++
		}
	}
	return added
}

// Delta is a shard-local coverage view: it counts points that are new with
// respect to the parent matrix's state at the time the delta was created,
// plus its own accumulation. Deltas are single-goroutine; the parent matrix
// must not be mutated while any delta derived from it is live (the campaign
// engine guarantees this by only absorbing deltas at merge barriers).
type Delta struct {
	base   *Coverage
	points covSet
}

// NewDelta derives an empty shard-local delta from the matrix.
func (c *Coverage) NewDelta() *Delta {
	return &Delta{base: c}
}

// AddFromLog folds a taint log into the delta and returns how many points
// were new relative to base ∪ delta. Not safe for concurrent use on the same
// delta; distinct deltas over one quiescent base may run in parallel.
func (d *Delta) AddFromLog(log []uarch.TaintSample) int {
	added := 0
	base, own := &d.base.points, &d.points
	for _, s := range log {
		n, ok := covCount(s)
		if !ok {
			continue
		}
		if row, w, bit := locate(s.Module, n); row >= 0 {
			if (base.rows[row][w]|own.rows[row][w])&bit != 0 {
				continue
			}
			own.rows[row][w] |= bit
			own.n++
			added++
			continue
		}
		k := covKey{module: s.Module, count: n}
		if base.hasKey(k) || own.hasKey(k) {
			continue
		}
		own.addKey(k)
		added++
	}
	return added
}

// Count returns the number of points accumulated in the delta.
func (d *Delta) Count() int { return d.points.n }

// Absorb merges a delta into the matrix and returns how many of its points
// were globally new (deltas from sibling shards may overlap).
func (c *Coverage) Absorb(d *Delta) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for r := range d.points.rows {
		for w, set := range d.points.rows[r] {
			fresh := set &^ c.points.rows[r][w]
			c.points.rows[r][w] |= fresh
			added += bits.OnesCount64(fresh)
		}
	}
	c.points.n += added
	//dvz:ordered commutative: set insertion plus a count of globally-new keys; d's keys are unique, so no insert can change a later membership test
	for k := range d.points.keyed {
		if !c.points.hasKey(k) {
			c.points.addKey(k)
			added++
		}
	}
	return added
}

// CovPoint is one exported coverage-matrix point: a (module,
// tainted-element-count) pair. It is the checkpoint serialisation unit.
type CovPoint struct {
	Module string `json:"m"`
	Count  int    `json:"n"`
}

// Points exports the matrix as a sorted point list (checkpoint snapshots).
func (c *Coverage) Points() []CovPoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CovPoint, 0, c.points.n)
	for r := range c.points.rows {
		for w, set := range c.points.rows[r] {
			for ; set != 0; set &= set - 1 {
				n := w*64 + bits.TrailingZeros64(set)
				out = append(out, CovPoint{Module: uarch.CensusModule(r), Count: n})
			}
		}
	}
	for k := range c.points.keyed {
		out = append(out, CovPoint{Module: k.module, Count: k.count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Module != out[j].Module {
			return out[i].Module < out[j].Module
		}
		return out[i].Count < out[j].Count
	})
	return out
}

// AddPoints folds exported points back into the matrix (checkpoint restore).
func (c *Coverage) AddPoints(pts []CovPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range pts {
		c.points.add(p.Module, p.Count)
	}
}

// Count returns the number of collected coverage points.
func (c *Coverage) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.points.n
}

// Modules lists modules with at least one coverage point, sorted.
func (c *Coverage) Modules() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	for r := range c.points.rows {
		if c.points.rows[r] != (covRow{}) {
			seen[uarch.CensusModule(r)] = true
		}
	}
	for k := range c.points.keyed {
		seen[k.module] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
