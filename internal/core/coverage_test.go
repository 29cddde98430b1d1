package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

func TestCoverageMatrixSemantics(t *testing.T) {
	c := NewCoverage()
	log := []uarch.TaintSample{
		{Cycle: 1, Module: "dcache", Tainted: 2, Bits: 128},
		{Cycle: 2, Module: "dcache", Tainted: 2, Bits: 128}, // duplicate point
		{Cycle: 2, Module: "dcache", Tainted: 3, Bits: 192}, // new count
		{Cycle: 2, Module: "rob", Tainted: 2, Bits: 64},     // new module
		{Cycle: 3, Module: "rob", Tainted: 0, Bits: 0},      // zero: ignored
	}
	if got := c.AddFromLog(log); got != 3 {
		t.Fatalf("AddFromLog = %d, want 3", got)
	}
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	// Re-adding contributes nothing: position-insensitivity over time.
	if got := c.AddFromLog(log); got != 0 {
		t.Fatalf("second AddFromLog = %d, want 0", got)
	}
	mods := c.Modules()
	if len(mods) != 2 || mods[0] != "dcache" || mods[1] != "rob" {
		t.Fatalf("Modules = %v", mods)
	}
}

func TestCoverageClampsLargeCounts(t *testing.T) {
	c := NewCoverage()
	c.AddFromLog([]uarch.TaintSample{{Module: "m", Tainted: 10_000}})
	if got := c.AddFromLog([]uarch.TaintSample{{Module: "m", Tainted: 20_000}}); got != 0 {
		t.Fatalf("clamped counts must collapse to one point, got %d new", got)
	}
}

// TestLivenessAblationCounts: disabling liveness must flag at least as many
// "findings" (it stops filtering dead sinks), reproducing the §6.3
// misclassification effect.
func TestLivenessAblationCounts(t *testing.T) {
	run := func(useLiveness bool) (findings, dead int) {
		opts := DefaultOptions(uarch.KindBOOM)
		opts.Iterations = 20
		opts.Seed = 77
		opts.UseLiveness = useLiveness
		rep := NewFuzzer(opts).Run()
		return len(rep.Findings), rep.DeadSinks
	}
	withF, withDead := run(true)
	withoutF, withoutDead := run(false)
	if withoutF < withF {
		t.Errorf("no-liveness flagged fewer cases (%d) than liveness (%d)", withoutF, withF)
	}
	if withoutDead != 0 {
		t.Errorf("no-liveness ablation still suppressed %d dead-sink cases", withoutDead)
	}
	_ = withDead
}

// TestReductionAblation: without training reduction the kept schedule must
// carry at least as much training overhead.
func TestReductionAblation(t *testing.T) {
	seedVal := int64(13)
	measure := func(useReduction bool) float64 {
		opts := DefaultOptions(uarch.KindBOOM)
		opts.Seed = seedVal
		opts.UseReduction = useReduction
		f := NewFuzzer(opts)
		st := f.MeasureTraining(gen.TrigBranchMispred, gen.VariantDerived, 4)
		if !st.Triggerable() {
			t.Fatal("branch windows not triggerable")
		}
		return st.AvgTO
	}
	reduced := measure(true)
	raw := measure(false)
	if raw < reduced {
		t.Fatalf("unreduced training overhead %.1f below reduced %.1f", raw, reduced)
	}
	if raw == reduced {
		t.Log("reduction removed nothing on this seed (decoys already absent)")
	}
}

func TestRotateSecret(t *testing.T) {
	base := []byte{1, 2, 3, 4}
	if got := rotateSecret(base, 0); &got[0] != &base[0] {
		// attempt 0 returns the base unchanged (same backing array ok too)
		for i := range base {
			if got[i] != base[i] {
				t.Fatal("attempt 0 changed the secret")
			}
		}
	}
	a1 := rotateSecret(base, 1)
	a2 := rotateSecret(base, 2)
	same1, same2 := 0, 0
	for i := range base {
		if a1[i] == base[i] {
			same1++
		}
		if a2[i] == a1[i] {
			same2++
		}
	}
	if same1 == len(base) || same2 == len(base) {
		t.Fatal("secret rotation produced identical pairs")
	}
}

// mapCoverage is the coverage matrix as plain sets of (module, count)
// keys: the semantics Coverage and Delta keep with dense census rows.
type mapCoverage map[covKey]bool

func (m mapCoverage) addLog(base mapCoverage, log []uarch.TaintSample) int {
	added := 0
	for _, s := range log {
		if s.Tainted == 0 {
			continue
		}
		k := covKey{module: s.Module, count: min(s.Tainted, covSlots-1)}
		if !base[k] && !m[k] {
			m[k] = true
			added++
		}
	}
	return added
}

// TestDenseCoverageMatchesMapSemantics drives Coverage and Delta and the
// plain-set model with the same logs: census modules, modules outside the
// census (isadiff's per-register names), clamped, zero and negative
// counts, and checkpoint points no log can produce. Every return value,
// count, point list and module list must agree.
func TestDenseCoverageMatchesMapSemantics(t *testing.T) {
	modules := []string{"dcache", "rob", "fpu", "frontend", "isasim/x05", "isasim/x05@p1", "isasim/data@l3", "lfb"}
	counts := []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 200, 254, 255, 256, 10_000, -1}
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	randLog := func(n int) []uarch.TaintSample {
		log := make([]uarch.TaintSample, n)
		for i := range log {
			log[i] = uarch.TaintSample{Cycle: i, Module: modules[next(len(modules))], Tainted: counts[next(len(counts))]}
		}
		return log
	}
	sorted := func(m mapCoverage) []CovPoint {
		var out []CovPoint
		for k := range m {
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
	check := func(what string, c *Coverage, m mapCoverage) {
		t.Helper()
		if c.Count() != len(m) {
			t.Fatalf("%s: Count = %d, want %d", what, c.Count(), len(m))
		}
		if got, want := c.Points(), sorted(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Points = %v\nwant %v", what, got, want)
		}
		seen := map[string]bool{}
		for k := range m {
			seen[k.module] = true
		}
		var mods []string
		for mod := range seen {
			mods = append(mods, mod)
		}
		sort.Strings(mods)
		if got := c.Modules(); !slices.Equal(got, mods) {
			t.Fatalf("%s: Modules = %v, want %v", what, got, mods)
		}
	}

	c, ref := NewCoverage(), mapCoverage{}
	// Checkpoint points outside the rows: zero, negative and unclamped
	// counts of a census module are kept by key.
	pts := []CovPoint{{"dcache", 0}, {"dcache", 300}, {"rob", -2}, {"rob", 5}, {"isasim/x07", 9}}
	c.AddPoints(pts)
	for _, p := range pts {
		ref[covKey{module: p.Module, count: p.Count}] = true
	}
	check("restored", c, ref)
	for round := 0; round < 20; round++ {
		var deltas []*Delta
		var refs []mapCoverage
		for s := 0; s < 3; s++ {
			d, dm := c.NewDelta(), mapCoverage{}
			for i := 0; i < 4; i++ {
				log := randLog(1 + next(40))
				if got, want := d.AddFromLog(log), dm.addLog(ref, log); got != want {
					t.Fatalf("round %d shard %d: Delta.AddFromLog = %d, want %d", round, s, got, want)
				}
				if d.Count() != len(dm) {
					t.Fatalf("round %d shard %d: Delta.Count = %d, want %d", round, s, d.Count(), len(dm))
				}
			}
			deltas, refs = append(deltas, d), append(refs, dm)
		}
		for s, d := range deltas {
			want := 0
			for k := range refs[s] {
				if !ref[k] {
					ref[k] = true
					want++
				}
			}
			if got := c.Absorb(d); got != want {
				t.Fatalf("round %d shard %d: Absorb = %d, want %d", round, s, got, want)
			}
		}
		log := randLog(16)
		if got, want := c.AddFromLog(log), ref.addLog(nil, log); got != want {
			t.Fatalf("round %d: Coverage.AddFromLog = %d, want %d", round, got, want)
		}
		check("round", c, ref)
	}
	again := NewCoverage()
	again.AddPoints(c.Points())
	check("reloaded", again, ref)
}
