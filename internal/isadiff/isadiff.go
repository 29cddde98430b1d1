// Package isadiff implements the "isasim" campaign target: an architectural
// (ISA-level) differential pair over internal/isasim, registered alongside
// the cycle-accurate uarch targets.
//
// The target runs every generated stimulus on two golden-model instances
// whose dedicated regions hold complementary secrets — the same coupling the
// diffIFT testbench uses — but observes purely architectural state. It is
// orders of magnitude cheaper than the uarch targets and serves two roles:
//
//   - a coverage smoke target: architectural divergence between the pair
//     (registers or data memory that differ only because the secrets differ)
//     maps onto the campaign coverage matrix, so the feedback loop, corpus
//     and checkpoint machinery can be exercised end to end in milliseconds;
//   - an architectural leakage baseline: a stimulus whose *control flow*
//     diverges between the two instances leaks its secret architecturally
//     (no transient execution required), which a well-formed stimulus never
//     does — any such finding flags a generator bug or a genuinely
//     architecture-level leak.
package isadiff

import (
	"fmt"
	"math/bits"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/isasim"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// TargetName is the registry key this package registers under.
const TargetName = "isasim"

func init() {
	core.RegisterTarget(target{})
}

type target struct{}

func (target) Name() string { return TargetName }
func (target) Description() string {
	return "architectural differential pair over the ISA-level golden model (cheap smoke target)"
}

// Kind returns the stimulus personality. Stimuli are generated as if for
// the BOOM-like core; the architectural simulator executes the same RV64
// subset either way.
func (target) Kind() uarch.CoreKind { return uarch.KindBOOM }

func (target) NewPipeline(f *core.Fuzzer) core.Pipeline {
	return pipeline{opts: f.Options()}
}

// pipeline is the per-campaign factory; each shard gets its own stateful
// instance so the two simulator instances, their address spaces, the
// stimulus buffers and the divergence scratch are allocated once per shard
// and reset between iterations.
type pipeline struct {
	opts core.Options
}

func (p pipeline) NewShard() core.ShardPipeline {
	return &shardPipeline{
		opts:  p.opts,
		gen:   gen.New(0),
		fresh: p.opts.FreshContexts,
	}
}

// shardPipeline is one shard's architectural differential pipeline.
// RunIteration is never called concurrently on the same instance.
type shardPipeline struct {
	opts  core.Options
	gen   *gen.Generator // stimulus builder (owns materialisation scratch)
	fresh bool           // rebuild contexts per run (reset-equivalence reference)

	st1, st2 gen.Stimulus     // phase-1 / completed stimulus buffers
	sched    swapmem.Schedule // reusable swap-schedule buffer
	a, b     archRun          // the two long-lived DUT slots
	samples  []uarch.TaintSample
}

// archRun is one reusable architectural DUT slot and, after Exec, its
// latest execution's observables.
type archRun struct {
	space *mem.Space
	sim   *isasim.Sim
	// traps is the swap-scheduling trap sequence (cause, EPC) in order.
	traps []isasim.Trap
	// regSnaps is the integer register file at every packet boundary
	// (trap), time-resolving where secret-derived divergence appears.
	regSnaps [][32]uint64
}

// Exec drives the slot through a swap schedule, mirroring swapmem.Runtime's
// trap-hook scheduling without the microarchitectural core: any trap ends
// the current packet, remaining packets load in order, and the run halts
// when the schedule drains, the budget is exhausted or a packet fails to
// load (whose error Exec returns). With fresh set the space and simulator
// are rebuilt instead of reset — the reference mode the reset-equivalence
// tests compare against.
func (run *archRun) Exec(sched *swapmem.Schedule, secret []byte, budget int, fresh bool) error {
	if fresh || run.space == nil {
		run.space = swapmem.NewSpace(secret)
		run.sim = isasim.New(run.space, swapmem.SharedBase)
	} else {
		swapmem.ResetSpace(run.space, secret)
		run.sim.Reset(run.space, swapmem.SharedBase)
	}
	run.traps = run.traps[:0]
	run.regSnaps = run.regSnaps[:0]
	if len(sched.Steps) == 0 {
		return nil
	}

	space, sim := run.space, run.sim
	entry, err := swapmem.LoadPacket(space, sched.Steps[0])
	if err != nil {
		return err
	}
	sim.PC = entry
	idx := 1
	sim.TrapHook = func(t isasim.Trap) isasim.TrapAction {
		run.traps = append(run.traps, t)
		run.regSnaps = append(run.regSnaps, sim.X)
		if idx >= len(sched.Steps) {
			return isasim.TrapAction{Halt: true}
		}
		var entry uint64
		if entry, err = swapmem.LoadPacket(space, sched.Steps[idx]); err != nil {
			return isasim.TrapAction{Halt: true}
		}
		idx++
		return isasim.TrapAction{NewPC: entry}
	}
	sim.Run(budget)
	return err
}

// controlFlowDiverged reports whether two runs took secret-dependent paths:
// different trap sequences or retirement counts.
func controlFlowDiverged(a, b *archRun) bool {
	if a.sim.Instret != b.sim.Instret || len(a.traps) != len(b.traps) {
		return true
	}
	for i := range a.traps {
		if a.traps[i].Cause != b.traps[i].Cause || a.traps[i].EPC != b.traps[i].EPC {
			return true
		}
	}
	return false
}

// dataLineBytes is the granularity at which divergent data memory is mapped
// onto coverage points.
const dataLineBytes = 64

// divergenceSamples maps the pair's architectural divergence onto coverage
// samples: one per differing integer register at each packet boundary and
// at halt (weighted by differing bits, positioned by boundary index), and
// one per differing data-region line. Registers and memory that diverge do
// so only because the secrets differ, so each sample is a distinct
// (channel, schedule position) the secret reached — a stimulus that never
// touches the secret contributes no coverage at all. Samples accumulate
// into dst (typically the shard's recycled scratch).
func divergenceSamples(dst []uarch.TaintSample, a, b *archRun) []uarch.TaintSample {
	out := dst
	snaps := len(a.regSnaps)
	if len(b.regSnaps) < snaps {
		snaps = len(b.regSnaps)
	}
	for k := 0; k < snaps; k++ {
		for r := 1; r < 32; r++ {
			if x := a.regSnaps[k][r] ^ b.regSnaps[k][r]; x != 0 {
				// The boundary position goes into the module name (the
				// count field clamps at the matrix's slot cap), so
				// divergence at a new schedule position is a new point.
				out = append(out, uarch.TaintSample{
					Module:  regPosModule(r, k),
					Tainted: bits.OnesCount64(x),
				})
			}
		}
	}
	for r := 1; r < 32; r++ {
		if x := a.sim.X[r] ^ b.sim.X[r]; x != 0 {
			out = append(out, uarch.TaintSample{Module: regModules[r], Tainted: bits.OnesCount64(x)})
		}
	}
	// The scan reads the live backing stores (no 32KB copies per iteration)
	// and skips pages neither run wrote: both spaces restore from the same
	// pristine image, so such pages are equal.
	mem.DiffLines(a.space, b.space, swapmem.DataBase, dataLineBytes, func(off, diff int) {
		// The line position goes into the module name, like the register
		// samples above: encoding it in the count would collapse every line
		// past the matrix's slot cap onto one point. The count is the
		// divergence weight (differing bytes, always < the cap).
		out = append(out, uarch.TaintSample{
			Module:  fmt.Sprintf("isasim/data@l%d", off/dataLineBytes),
			Tainted: diff,
		})
	})
	return out
}

// regModules pre-renders the per-register coverage module names.
var regModules = func() [32]string {
	var names [32]string
	for r := range names {
		names[r] = "isasim/x" + string(rune('0'+r/10)) + string(rune('0'+r%10))
	}
	return names
}()

// regPosModules pre-renders the (register, packet boundary) module names
// for the boundary depths stimuli actually reach; deeper boundaries fall
// back to formatting.
var regPosModules = func() [32][16]string {
	var names [32][16]string
	for r := range names {
		for k := range names[r] {
			names[r][k] = fmt.Sprintf("%s@p%d", regModules[r], k)
		}
	}
	return names
}()

func regPosModule(r, k int) string {
	if k < len(regPosModules[r]) {
		return regPosModules[r][k]
	}
	return fmt.Sprintf("%s@p%d", regModules[r], k)
}

// RunIteration executes one architectural differential iteration: build the
// completed stimulus (window training architecturally touches the secret,
// exactly as in the uarch Phase-2 differential run), execute it on the
// shard's coupled pair of reusable slots, fold divergence observables into
// the coverage sink, and flag control-flow divergence as an architectural
// leak finding.
func (p *shardPipeline) RunIteration(iter int, seed gen.Seed, sink core.CovSink) core.Outcome {
	out := core.Outcome{}
	if err := p.gen.BuildStimulusInto(&p.st1, seed); err != nil {
		return out
	}
	if err := p.gen.CompleteWindowInto(&p.st2, &p.st1); err != nil {
		return out
	}
	sched := p.st2.BuildScheduleInto(&p.sched, nil)
	budget := p.opts.MaxCycles
	if budget <= 0 {
		budget = core.DefaultMaxCycles
	}
	secret := core.DefaultSecret
	if err := p.a.Exec(sched, secret, budget, p.fresh); err != nil {
		return out
	}
	if err := p.b.Exec(sched, swapmem.FlipSecret(secret), budget, p.fresh); err != nil {
		return out
	}
	a, b := &p.a, &p.b
	out.Sims = 2
	out.Measured = true

	// Triggered: the planned trigger instruction architecturally trapped.
	// Only windows whose family's trigger class ends in an exception squash
	// have an architectural trigger signature; misprediction and
	// memory-ordering windows have none, so their families honestly report
	// untriggered on an ISA model.
	class := gen.TriggerClass(seed)
	if class.Squash() == uarch.SquashException {
		for _, t := range a.traps {
			if t.EPC == p.st1.TriggerPC {
				out.Triggered = true
				break
			}
		}
	}

	p.samples = divergenceSamples(p.samples[:0], a, b)
	out.NewPoints = sink.AddFromLog(p.samples)
	out.TaintGain = out.NewPoints > 0

	if controlFlowDiverged(a, b) {
		out.Finding = &core.Finding{
			Kind:       core.FindingTiming,
			AttackType: "ArchLeak",
			Window:     class,
			Scenario:   gen.ScenarioName(seed),
			Components: []string{"isasim"},
			Seed:       seed,
		}
	}
	return out
}
