package core

import (
	"fmt"
	"sort"
	"sync"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// CovSink is where a pipeline folds observed coverage logs: the global
// matrix for sequential use, a shard-local Delta inside the campaign engine.
type CovSink interface {
	AddFromLog(log []uarch.TaintSample) int
}

// Outcome is one fuzzing iteration's result as reported by a target
// pipeline. The engine folds it into iteration statistics, coverage
// feedback and the findings list.
type Outcome struct {
	// Triggered reports whether the stimulus opened its transient window
	// (or the target-specific analogue).
	Triggered bool
	// Measured reports whether the coverage-measurement stage ran; only
	// measured iterations feed the corpus-selection feedback loop.
	Measured bool
	// TaintGain reports whether the iteration increased the observable the
	// target uses for feedback (in-window taint growth on the uarch targets).
	TaintGain bool
	// NewPoints is the iteration's coverage gain against the sink.
	NewPoints int
	// Sims counts simulations spent (budget accounting).
	Sims int
	// Finding is a reported potential vulnerability, nil if none.
	Finding *Finding
	// DeadSinksOnly is true when taints existed but every sink was dead
	// (the false-positive class liveness filtering removes).
	DeadSinksOnly bool
}

// Pipeline is a per-campaign factory for per-shard execution pipelines.
// The campaign engine calls NewShard once per deterministic shard at
// construction time; each ShardPipeline is then driven by at most one
// worker at a time, so implementations can carry long-lived mutable state
// (execution contexts, scratch buffers) without locks.
type Pipeline interface {
	NewShard() ShardPipeline
}

// ShardPipeline turns generated seeds into iteration outcomes for one shard
// of a campaign. RunIteration is never called concurrently on the same
// ShardPipeline, but sibling shards run in parallel; implementations must
// be deterministic in (seed, sink state) and must not share mutable state
// with sibling shards.
type ShardPipeline interface {
	RunIteration(iter int, seed gen.Seed, sink CovSink) Outcome
}

// Target is a pluggable design under test. A target supplies the stimulus
// personality the generator builds programs for and the per-campaign
// pipeline factory that executes them — the seam that lets one campaign
// engine drive the cycle-accurate uarch models, the architectural isasim
// differential pair, or any future backend.
type Target interface {
	// Name is the registry key (e.g. "boom", "xiangshan", "isasim").
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Kind is the core personality seeds and stimuli are generated for.
	Kind() uarch.CoreKind
	// NewPipeline builds the per-shard pipeline factory for a campaign. The
	// fuzzer carries the resolved options, core config and stimulus
	// generator.
	NewPipeline(f *Fuzzer) Pipeline
}

var (
	targetMu  sync.RWMutex
	targetReg = map[string]Target{}
)

// RegisterTarget adds a target to the package registry. It panics on an
// empty name or a duplicate registration (targets are wired at init time;
// a collision is a programming error).
func RegisterTarget(t Target) {
	name := t.Name()
	if name == "" {
		panic("core: RegisterTarget with empty name")
	}
	targetMu.Lock()
	defer targetMu.Unlock()
	if _, dup := targetReg[name]; dup {
		panic(fmt.Sprintf("core: target %q registered twice", name))
	}
	targetReg[name] = t
}

// LookupTarget resolves a registered target by name.
func LookupTarget(name string) (Target, error) {
	targetMu.RLock()
	t, ok := targetReg[name]
	targetMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown target %q (registered: %v)", name, Targets())
	}
	return t, nil
}

// Targets returns the sorted names of all registered targets.
func Targets() []string {
	targetMu.RLock()
	defer targetMu.RUnlock()
	out := make([]string, 0, len(targetReg))
	for name := range targetReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultTarget is the target an empty Options.Target selects.
const DefaultTarget = "boom"

// BuiltinTargetName maps a core kind onto its built-in uarch target name
// (DefaultOptions and repro-seed replay select targets this way).
func BuiltinTargetName(k uarch.CoreKind) string {
	if k == uarch.KindXiangShan {
		return "xiangshan"
	}
	return "boom"
}

// uarchTarget is a built-in cycle-accurate core model target.
type uarchTarget struct {
	name string
	desc string
	kind uarch.CoreKind
}

func (t uarchTarget) Name() string                   { return t.name }
func (t uarchTarget) Description() string            { return t.desc }
func (t uarchTarget) Kind() uarch.CoreKind           { return t.kind }
func (t uarchTarget) NewPipeline(f *Fuzzer) Pipeline { return uarchPipeline{f: f} }

func init() {
	RegisterTarget(uarchTarget{
		name: "boom",
		desc: "cycle-accurate SmallBOOM-like out-of-order core (bugs B2-B4)",
		kind: uarch.KindBOOM,
	})
	RegisterTarget(uarchTarget{
		name: "xiangshan",
		desc: "cycle-accurate XiangShan-MinimalConfig-like core (bugs B1/B4/B5)",
		kind: uarch.KindXiangShan,
	})
}

// uarchPipeline is the per-campaign factory for the paper's three-phase
// pipeline (transient window triggering, transient execution exploration,
// transient leakage analysis) over the cycle-accurate core models.
type uarchPipeline struct {
	f *Fuzzer
}

func (p uarchPipeline) NewShard() ShardPipeline { return newUarchShard(p.f) }

// uarchShard is one shard's three-phase pipeline instance. It owns the
// shard's execution context (one resettable diffIFT pair), a builder
// generator (assembly-materialisation scratch), reusable stimulus buffers
// for the three construction stages and a reusable swap schedule — the
// complete per-iteration working set, allocated once per campaign shard.
type uarchShard struct {
	f   *Fuzzer
	gen *gen.Generator // stimulus builder; per-shard for its scratch buffers
	ctx *ExecContext

	sched swapmem.Schedule // reusable swap-schedule buffer
	st1   gen.Stimulus     // Phase-1 stimulus buffer
	st2   gen.Stimulus     // Phase-2 completed-window buffer
	st3   gen.Stimulus     // Phase-3 sanitised buffer
	keep  []bool           // reusable training-reduction mask

	// Reusable Phase-3 census buffers: the primary run's and the
	// sanitisation rerun's A-instance censuses.
	census, sanCensus []uarch.ModuleTaint
}

// newUarchShard builds a shard pipeline for the fuzzer's options. Builds are
// pure functions of the seed, so the builder generator's RNG seed is
// irrelevant — it exists for its scratch buffers.
func newUarchShard(f *Fuzzer) *uarchShard {
	s := &uarchShard{f: f, gen: gen.New(0)}
	if f.opts.FreshContexts {
		s.ctx = NewFreshContext()
	} else {
		s.ctx = NewExecContext()
	}
	return s
}

// RunIteration executes one complete fuzzing iteration (all three phases)
// on the shard's borrowed context. A phase error ends the iteration with
// the outcome so far.
func (s *uarchShard) RunIteration(iter int, seed gen.Seed, sink CovSink) Outcome {
	out, _, _, _ := s.chain(seed, sink)
	return out
}

// chain runs Phase 1, then Phase 2 into sink, then Phase 3, stopping at the
// first gate that fails (no trigger, no taint gain) or the first error. It
// returns the outcome so far, Phase 1's training overhead (TO/ETO) and that
// error. Campaign iterations and Fuzzer.Reproduce both run it.
func (s *uarchShard) chain(seed gen.Seed, sink CovSink) (out Outcome, to, eto int, err error) {
	p1, err := s.Phase1(seed)
	if err != nil {
		return out, 0, 0, err
	}
	out.Sims += p1.Sims
	to, eto = p1.TO, p1.ETO
	if !p1.Triggered {
		return out, to, eto, nil
	}
	out.Triggered = true

	p2, err := s.phase2Into(p1, sink)
	if err != nil {
		return out, to, eto, err
	}
	out.Sims += p2.Sims
	out.Measured = true
	out.TaintGain = p2.TaintGain
	out.NewPoints = p2.NewPoints
	if !p2.TaintGain {
		return out, to, eto, nil
	}

	p3, err := s.Phase3(p1, p2)
	if err != nil {
		return out, to, eto, err
	}
	out.Sims += p3.Sims
	out.Finding = p3.Finding
	out.DeadSinksOnly = p3.DeadSinksOnly
	return out, to, eto, nil
}
