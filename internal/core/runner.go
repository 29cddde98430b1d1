// Package core implements the DejaVuzz fuzzing framework: the three-phase
// pipeline (transient window triggering, transient execution exploration,
// transient leakage analysis), the taint coverage matrix, training reduction,
// encode sanitisation, tainted-sink liveness analysis and the parallel
// fuzzing manager.
package core

import (
	"dejavuzz/internal/gen"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// DefaultSecret is the 8-byte secret planted in the dedicated region; the
// variant DUT receives its bitwise complement (the paper's bit-flip strategy
// against diffIFT false negatives).
var DefaultSecret = []byte{0xa5, 0x3c, 0x96, 0x0f, 0x11, 0xee, 0x42, 0x7b}

// RunOpts configures one RTL-simulation run.
type RunOpts struct {
	Cfg        uarch.Config
	Mode       uarch.IFTMode
	Secret     []byte
	TaintTrace bool
	MaxCycles  int
}

func (o *RunOpts) defaults() {
	if o.Secret == nil {
		o.Secret = DefaultSecret
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = DefaultMaxCycles
	}
}

// SingleRun is a finished single-DUT simulation. A run returned by an
// ExecContext borrows the context's state: it stays valid until the next
// run on that context.
type SingleRun struct {
	Core *uarch.Core
	RT   *swapmem.Runtime
}

// DiffRun is a finished differential (two-DUT) simulation. A run returned
// by an ExecContext borrows the context's state: it stays valid until the
// next run on that context.
type DiffRun struct {
	Pair     *uarch.Pair
	RTA, RTB *swapmem.Runtime
}

// instance is one reusable DUT: an address space, a core over it and a swap
// runtime driving it. It is built on first use and Reset in place
// afterwards.
type instance struct {
	space *mem.Space
	core  *uarch.Core
	rt    *swapmem.Runtime
}

// prepare readies the instance for a run: fresh construction on first use
// (or always, in a fresh context), in-place reset otherwise. The reset path
// is provably equivalent to construction — NewSpace/NewCore/NewRuntime are
// implemented in terms of the same Reset/Rebind operations.
func (in *instance) prepare(fresh bool, secret []byte, cfg uarch.Config, mode uarch.IFTMode,
	sched *swapmem.Schedule, taintTrace bool) {
	if fresh || in.space == nil {
		in.space = swapmem.NewSpace(secret)
		in.core = uarch.NewCore(cfg, in.space, mode)
		in.rt = swapmem.NewRuntime(in.core, in.space, sched)
	} else {
		swapmem.ResetSpace(in.space, secret)
		in.core.Reset(cfg, in.space, mode)
		in.rt.Rebind(in.core, in.space, sched)
	}
	in.core.TaintTraceOn = taintTrace
}

// ExecContext is a long-lived, resettable execution plane for one pipeline
// shard: the paper's differential testbench, one pair of DUT instances (a
// and b) that it resets between simulations instead of reallocating. Every
// phase of an iteration runs on the pair: single-DUT runs (Phase 1's
// trigger check and training reduction) on a, differential runs (Phase 2
// and Phase 3's sanitised rerun) on both. A context is single-goroutine;
// the campaign engine gives every deterministic shard its own (no locks, no
// pooling, no cross-shard sharing).
type ExecContext struct {
	// fresh disables reuse: every run rebuilds its DUT state from scratch.
	// This is the reference behaviour reset-equivalence is proven against.
	fresh bool

	a, b instance
}

// NewExecContext returns a reusing execution context.
func NewExecContext() *ExecContext { return &ExecContext{} }

// NewFreshContext returns a context that rebuilds all DUT state on every
// run — per-simulation construction, exactly what the engine did before
// contexts existed. Campaigns run with Options.FreshContexts use it; the
// reset-equivalence tests pin that both modes produce byte-identical
// reports.
func NewFreshContext() *ExecContext { return &ExecContext{fresh: true} }

// RunSingle executes a swap schedule on the context's instance a.
func (x *ExecContext) RunSingle(sched *swapmem.Schedule, opts RunOpts) *SingleRun {
	opts.defaults()
	x.a.prepare(x.fresh, opts.Secret, opts.Cfg, opts.Mode, sched, opts.TaintTrace)
	x.a.rt.Start()
	x.a.core.Run(opts.MaxCycles)
	return &SingleRun{Core: x.a.core, RT: x.a.rt}
}

func (x *ExecContext) runDiff(sched *swapmem.Schedule, opts RunOpts, secretB []byte) *DiffRun {
	// Taint tracing records observables on instance a only: every analysis
	// (coverage log, taint-gain series, censuses, sinks) reads a; b exists
	// to resolve the cross-instance comparisons, and tracing it would
	// double the per-cycle census cost for data nobody reads. Recording is
	// observation-only, so this cannot change results.
	x.a.prepare(x.fresh, opts.Secret, opts.Cfg, uarch.IFTDiff, sched, opts.TaintTrace)
	x.b.prepare(x.fresh, secretB, opts.Cfg, uarch.IFTDiff, sched, false)
	x.a.rt.Start()
	x.b.rt.Start()
	p := uarch.NewPair(x.a.core, x.b.core)
	p.Run(opts.MaxCycles)
	return &DiffRun{Pair: p, RTA: x.a.rt, RTB: x.b.rt}
}

// RunDiff executes a swap schedule on the context's pair: two DUTs with
// complementary secrets, coupled for diffIFT.
func (x *ExecContext) RunDiff(sched *swapmem.Schedule, opts RunOpts) *DiffRun {
	opts.defaults()
	return x.runDiff(sched, opts, swapmem.FlipSecret(opts.Secret))
}

// RunDiffFN executes the diffIFT false-negative worst case on the pair:
// both instances carry the SAME secret, so every cross-instance comparison
// is equal and all control taints are suppressed (Figure 6's diffIFT_FN
// series).
func (x *ExecContext) RunDiffFN(sched *swapmem.Schedule, opts RunOpts) *DiffRun {
	opts.defaults()
	return x.runDiff(sched, opts, opts.Secret)
}

// RunSingle executes a swap schedule on a freshly constructed DUT instance
// (one-shot; experiments and examples use this, the campaign hot path goes
// through per-shard ExecContexts).
func RunSingle(sched *swapmem.Schedule, opts RunOpts) *SingleRun {
	return NewFreshContext().RunSingle(sched, opts)
}

// RunDiff executes a swap schedule on a freshly constructed differential
// testbench: two DUTs with complementary secrets, coupled for diffIFT.
func RunDiff(sched *swapmem.Schedule, opts RunOpts) *DiffRun {
	return NewFreshContext().RunDiff(sched, opts)
}

// RunDiffFN executes the diffIFT false-negative worst case on fresh
// instances: both carry the SAME secret, so every cross-instance comparison
// is equal and all control taints are suppressed (Figure 6's diffIFT_FN
// series).
func RunDiffFN(sched *swapmem.Schedule, opts RunOpts) *DiffRun {
	return NewFreshContext().RunDiffFN(sched, opts)
}

// expectedSquash is the squash class a seed's transient window must be
// terminated by: the one its family's trigger class implies. A seed that
// names no family (only a hand-crafted one can) is held to the exception
// class.
func expectedSquash(s gen.Seed) uarch.SquashReason {
	fam, err := gen.FamilyOf(s)
	if err != nil {
		return uarch.SquashException
	}
	return fam.Trigger.Squash()
}

// WindowTriggered evaluates the paper's trigger criterion during the
// transient packet's execution: more window instructions entered the RoB
// than committed, terminated by the expected squash class at the trigger PC.
func WindowTriggered(run *SingleRun, st *gen.Stimulus) bool {
	ws := run.Core.Trace.WindowSince(st.WindowLo, st.WindowHi, run.RT.TransientStart())
	return ws.Triggered() && squashedAtTrigger(run, st, expectedSquash(st.Seed))
}

// squashedAtTrigger reports whether the transient packet's run squashed
// with reason want at the trigger PC. A misprediction squash counts only
// when a trained prediction took the wrong path: default (untrained)
// fall-through execution opens no trained transient window, and the paper
// excludes it.
func squashedAtTrigger(run *SingleRun, st *gen.Stimulus, want uarch.SquashReason) bool {
	since := run.RT.TransientStart()
	for _, s := range run.Core.Trace.Squashes {
		if s.Cycle >= since && s.Reason == want && s.AtPC == st.TriggerPC && (s.PredTaken || !want.Mispredict()) {
			return true
		}
	}
	return false
}
