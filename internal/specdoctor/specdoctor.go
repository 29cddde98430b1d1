// Package specdoctor implements the SpecDoctor baseline (Hur et al., CCS'22)
// at the fidelity the paper's comparison requires.
//
// SpecDoctor generates linear programs in a single address space: a random
// instruction prefix doubles as microarchitectural training, the
// transient-trigger phase runs until a RoB rollback is observed, the
// secret-transmit phase appends instructions behind the trigger, and the
// oracle compares hashes of the timing components' final state between two
// secret variants. Its documented limitations are modelled directly:
//
//   - windows containing backward jumps are discarded, so return-address
//     windows are out of scope;
//   - the generator emits only valid memory accesses and legal instructions,
//     so access-fault / misalignment / illegal-instruction windows are
//     unreachable (Table 3's empty cells);
//   - the final-state hash covers cache data arrays, so a secret that is
//     merely resident (never encoded) still flips the hash — the
//     false-positive class the liveness evaluation quantifies;
//   - phase 4 decodes secrets by generating random receive programs, which
//     the paper observed never succeeding within 100k iterations.
package specdoctor

import (
	"fmt"
	"math/rand"
	"strings"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/isa"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// Options configures the baseline fuzzer. Every run gets
// core.DefaultMaxCycles cycles.
type Options struct {
	Core uarch.CoreKind
	Seed int64
}

// Case is one generated linear test program.
type Case struct {
	Program    *isa.Program
	Trigger    gen.TriggerType
	TrainInsts int // training overhead: the random prefix length
	TriggerPC  uint64
	// HasEncodeGadget marks transmit sections that truly encode the secret
	// (secret-indexed access) rather than merely loading it.
	HasEncodeGadget bool
}

// CaseResult is the outcome of differential execution.
type CaseResult struct {
	Triggered  bool
	HashDiffer bool
	CyclesA    int
	CyclesB    int
}

// Positive reports whether SpecDoctor's phase 3 would pass this case on to
// phase 4 (encoded state hash differs after a triggered rollback).
func (r *CaseResult) Positive() bool { return r.Triggered && r.HashDiffer }

// Fuzzer is the SpecDoctor reimplementation.
type Fuzzer struct {
	opts Options
	cfg  uarch.Config
	rng  *rand.Rand
}

// New builds the baseline for a core.
func New(opts Options) *Fuzzer {
	return &Fuzzer{opts: opts, cfg: uarch.ConfigFor(opts.Core), rng: rand.New(rand.NewSource(opts.Seed))}
}

// SupportedTriggers lists the window types SpecDoctor's generator reaches,
// derived from the scenario table's capability flags instead of a hardcoded
// list: a canonical family is reachable iff its window contains no backward
// jumps (discarded by its generator) and it emits only valid accesses and
// legal instructions. With the shipped families this resolves to
// page-fault, memory-disambiguation, branch and indirect-jump windows —
// exactly the documented Table 3 support set.
func (f *Fuzzer) SupportedTriggers() []gen.TriggerType {
	var out []gen.TriggerType
	for _, t := range gen.AllTriggerTypes() {
		if supportsScenario(scenario.ByTrigger(t)) {
			out = append(out, t)
		}
	}
	return out
}

// supportsScenario is the capability filter behind SupportedTriggers.
func supportsScenario(f *scenario.Family) bool {
	return !f.Caps.BackwardJumps && !f.Caps.InvalidCode
}

// Supports reports generator reachability for a trigger type.
func (f *Fuzzer) Supports(t gen.TriggerType) bool {
	return supportsScenario(scenario.ByTrigger(t))
}

// randomFiller emits one random (valid, forward-only) instruction line.
func (f *Fuzzer) randomFiller() string {
	regs := []string{"t0", "t1", "t2", "t3", "t4", "s2", "s3", "s4"}
	r := func() string { return regs[f.rng.Intn(len(regs))] }
	switch f.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("add %s, %s, %s", r(), r(), r())
	case 1:
		return fmt.Sprintf("addi %s, %s, %d", r(), r(), f.rng.Intn(128))
	case 2:
		return fmt.Sprintf("xor %s, %s, %s", r(), r(), r())
	case 3:
		return fmt.Sprintf("andi %s, %s, %#x", r(), r(), f.rng.Intn(64))
	case 4:
		return fmt.Sprintf("ld %s, %d(a6)", r(), 8*f.rng.Intn(8))
	default:
		return fmt.Sprintf("sll %s, %s, %s", r(), r(), r())
	}
}

// GenCase produces one linear program for a supported trigger type.
// The random prefix is SpecDoctor's combined training-and-search cost: the
// multi-phase generator appends random instructions until a rollback occurs.
func (f *Fuzzer) GenCase(t gen.TriggerType) (*Case, error) {
	if !f.Supports(t) {
		return nil, fmt.Errorf("specdoctor: trigger %v unreachable by generator", t)
	}
	prefixLen := 100 + f.rng.Intn(40)
	var lines []string
	emit := func(l ...string) { lines = append(lines, l...) }

	// Common setup: a6 points at scratch data for random loads.
	emit(fmt.Sprintf("li a6, %#x", swapmem.DataBase+0x600))
	for i := 0; i < prefixLen; i++ {
		emit(f.randomFiller())
	}

	hasGadget := f.rng.Intn(4) == 0
	transmit := []string{
		fmt.Sprintf("li t0, %#x", uint64(swapmem.SecretAddr)),
		"ld s0, 0(t0)",
	}
	if hasGadget {
		transmit = append(transmit,
			"andi s1, s0, 0x3f",
			"slli s1, s1, 6",
			fmt.Sprintf("li t1, %#x", swapmem.DataBase+0x1000),
			"add t1, t1, s1",
			"ld t2, 0(t1)",
		)
	} else {
		transmit = append(transmit,
			"add t3, s0, s0",
			"xor t4, t3, s0",
		)
	}

	switch t {
	case gen.TrigPageFault:
		emit(fmt.Sprintf("li t6, %#x", swapmem.GuardPageBase+0x40))
		emit("trig:")
		emit("ld t6, 0(t6)")
		emit(transmit...)
		emit("ecall")
	case gen.TrigMemDisambig:
		ptr := swapmem.DataBase + 0x340
		emit(
			fmt.Sprintf("li a2, %#x", ptr),
			fmt.Sprintf("li a3, %#x", uint64(swapmem.SecretAddr)),
			"sd a3, 0(a2)",
			fmt.Sprintf("li a4, %#x", swapmem.DataBase+0x440),
			fmt.Sprintf("li t3, %#x", ptr*9),
			"li t4, 3",
			"div t3, t3, t4",
			"div t3, t3, t4",
		)
		emit("trig:")
		emit("sd a4, 0(t3)")
		emit("ld t1, 0(a2)")
		// Transmit via the stale pointer.
		emit("ld s0, 0(t1)")
		emit(transmit[2:]...)
		emit("ecall")
	case gen.TrigBranchMispred:
		lines = buildBranchCase(lines, transmit)
	case gen.TrigJumpMispred:
		lines = buildJumpCase(lines, transmit)
	}

	src := strings.Join(lines, "\n")
	prog, err := isa.Asm(swapmem.SwapBase, src)
	if err != nil {
		return nil, fmt.Errorf("specdoctor: %w", err)
	}
	trigPC, ok := prog.Labels["trig"]
	if !ok {
		return nil, fmt.Errorf("specdoctor: no trig label")
	}
	return &Case{
		Program:         prog,
		Trigger:         t,
		TrainInsts:      prefixLen + 8,
		TriggerPC:       trigPC,
		HasEncodeGadget: hasGadget,
	}, nil
}

// buildBranchCase appends the branch-mispredict structure: the trigger
// branch executes twice taken (training the direction and target), then once
// not-taken with a slowly resolving condition, so the transmit section at
// the taken target runs transiently. SpecDoctor has no training isolation,
// so the transmit section also executes architecturally during training —
// one of the weaknesses the paper documents.
func buildBranchCase(prefix, transmit []string) []string {
	lines := append([]string{}, prefix...)
	lines = append(lines,
		"li a3, 2",
		"head:",
		"beq a3, zero, finalsetup",
		"addi a3, a3, -1",
		"li a0, 1",
		"li a1, 1",
		"j trig",
		"finalsetup:",
		"li a0, 36",
		"li a1, 3",
		"div a0, a0, a1",
		"div a0, a0, a1", // a0=4 != a1=3, resolving slowly
		"j trig",
		"trig:",
		"beq a0, a1, win",
		"j exit",
		"win:",
	)
	lines = append(lines, transmit...)
	lines = append(lines,
		"j head",
		"exit:",
		"ecall",
	)
	return lines
}

// buildJumpCase appends the indirect-jump structure: the jalr at trig jumps
// to the transmit block three times (training the target predictor), then to
// the exit with a slowly resolving register, leaving the transmit transient.
func buildJumpCase(prefix, transmit []string) []string {
	lines := append([]string{}, prefix...)
	lines = append(lines,
		"li a3, 3",
		"head:",
		"beq a3, zero, finalsetup",
		"addi a3, a3, -1",
		"la a5, win",
		"j trig",
		"finalsetup:",
		"la a5, exit",
		"li t5, 9",
		"li t4, 3",
		"mul a5, a5, t5",
		"div a5, a5, t4",
		"div a5, a5, t4", // a5 = exit, resolving slowly
		"j trig",
		"trig:",
		"jalr x0, 0(a5)",
		"win:",
	)
	lines = append(lines, transmit...)
	lines = append(lines,
		"j head",
		"exit:",
		"ecall",
	)
	return lines
}

// schedule wraps the linear program as a single swap step (no swapping: the
// whole point of the baseline is the shared, linear address space).
func (c *Case) schedule() *swapmem.Schedule {
	s := &swapmem.Schedule{}
	s.Append(&swapmem.Packet{
		Name:  "specdoctor-case",
		Kind:  swapmem.PacketTransient,
		Image: c.Program,
		Entry: c.Program.Base,
	})
	return s
}

// Schedule exposes the case as a runnable swap schedule (coverage replay).
func (c *Case) Schedule() *swapmem.Schedule { return c.schedule() }

// RunCase executes the differential test: the same program under two
// secrets, comparing timing-component hashes (data arrays included — the
// source of SpecDoctor's false positives).
func (f *Fuzzer) RunCase(c *Case, secret []byte) *CaseResult {
	res := &CaseResult{}
	var hashes [2]uint64
	secrets := [2][]byte{secret, swapmem.FlipSecret(secret)}
	for i, sec := range secrets {
		space := swapmem.NewSpace(sec)
		coreInst := uarch.NewCore(f.cfg, space, uarch.IFTOff)
		rt := swapmem.NewRuntime(coreInst, space, c.schedule())
		rt.Start()
		coreInst.Run(core.DefaultMaxCycles)
		hashes[i] = coreInst.TimingHash(true)
		if i == 0 {
			res.CyclesA = coreInst.Cycle
			want := c.Trigger.Squash()
			for _, s := range coreInst.Trace.Squashes {
				if s.Reason == want && s.AtPC == c.TriggerPC {
					res.Triggered = true
				}
			}
		} else {
			res.CyclesB = coreInst.Cycle
		}
	}
	res.HashDiffer = hashes[0] != hashes[1]
	return res
}

// CampaignResult summarises a SpecDoctor fuzzing campaign.
type CampaignResult struct {
	Iterations int
	Positives  []*Case
	// TriggerTO records average training overhead per triggered type.
	TriggerTO map[gen.TriggerType]float64
	// Phase4Attempts is the emulated random-decode effort (never succeeds,
	// matching the paper's week-long observation).
	Phase4Attempts int
}

// Campaign runs n iterations and collects phase-3 positives.
func (f *Fuzzer) Campaign(n int, secret []byte) *CampaignResult {
	res := &CampaignResult{Iterations: n, TriggerTO: make(map[gen.TriggerType]float64)}
	counts := make(map[gen.TriggerType]int)
	sup := f.SupportedTriggers()
	for i := 0; i < n; i++ {
		t := sup[f.rng.Intn(len(sup))]
		c, err := f.GenCase(t)
		if err != nil {
			continue
		}
		r := f.RunCase(c, secret)
		if r.Triggered {
			counts[t]++
			res.TriggerTO[t] += (float64(c.TrainInsts) - res.TriggerTO[t]) / float64(counts[t])
			if r.Positive() {
				res.Positives = append(res.Positives, c)
				res.Phase4Attempts += 100 // emulated random decode generation
			}
		}
	}
	return res
}
