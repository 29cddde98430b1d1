package core

import (
	"fmt"
	"slices"
	"sort"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// Phase1Result reports transient-window triggering and training reduction.
// Results borrow the producing shard's stimulus and context buffers: they
// are valid until the shard's next Phase1 call.
type Phase1Result struct {
	Stimulus *gen.Stimulus
	Keep     []bool // surviving trigger-training packets after reduction
	// TO/ETO are the total and effective (nop-free) training overhead of the
	// reduced schedule — the Table 3 metrics.
	TO, ETO   int
	Triggered bool
	Sims      int // simulations spent (budget accounting)
}

// Phase1 implements Step 1.1/1.2 on the fuzzer's sequential pipeline; see
// uarchShard.Phase1. The result is valid until the next phase call on this
// fuzzer.
func (f *Fuzzer) Phase1(seed gen.Seed) (*Phase1Result, error) {
	return f.seqShard().Phase1(seed)
}

// Phase1 implements Step 1.1/1.2: build the transient packet and derived (or
// random) training, evaluate transient execution, and reduce training.
func (s *uarchShard) Phase1(seed gen.Seed) (*Phase1Result, error) {
	if err := s.gen.BuildStimulusInto(&s.st1, seed); err != nil {
		return nil, err
	}
	st := &s.st1
	res := &Phase1Result{Stimulus: st}
	keep := s.keep[:0]
	for range st.TriggerTrains {
		keep = append(keep, true)
	}
	s.keep = keep

	run := s.ctx.RunSingle(st.BuildScheduleInto(&s.sched, keep), s.f.runOpts(uarch.IFTOff, false))
	res.Sims++
	if !WindowTriggered(run, st) && !relocateWindow(run, st) {
		res.Keep = keep
		return res, nil
	}
	res.Triggered = true

	// Step 1.2 training reduction: drop one packet at a time, re-simulate,
	// and discard it permanently if the window still triggers.
	if s.f.opts.UseReduction {
		for i := range st.TriggerTrains {
			if !keep[i] {
				continue
			}
			keep[i] = false
			run := s.ctx.RunSingle(st.BuildScheduleInto(&s.sched, keep), s.f.runOpts(uarch.IFTOff, false))
			res.Sims++
			if !WindowTriggered(run, st) {
				keep[i] = true // necessary packet
			}
		}
	}
	res.Keep = keep
	res.TO, res.ETO = trainingOverhead(st, keep)
	return res, nil
}

// relocateWindow is the DejaVuzz* acceptance path: random training cannot
// steer the prediction at the planned window address, but a transient window
// of the expected squash class anywhere in the swap region is still usable —
// the fuzzer relocates the window onto it.
func relocateWindow(run *SingleRun, st *gen.Stimulus) bool {
	if st.Seed.Variant != gen.VariantRandom {
		return false
	}
	c := run.Core
	since := run.RT.TransientStart()
	wantReason := map[gen.TriggerType]uarch.SquashReason{
		gen.TrigBranchMispred: uarch.SquashBranchMispredict,
		gen.TrigJumpMispred:   uarch.SquashJumpMispredict,
		gen.TrigReturnMispred: uarch.SquashReturnMispredict,
	}[st.Seed.Trigger]
	if wantReason == uarch.SquashNone {
		return false
	}
	sawReason := false
	for _, s := range c.Trace.Squashes {
		if s.Cycle >= since && s.Reason == wantReason && s.AtPC == st.TriggerPC && s.PredTaken {
			sawReason = true
		}
	}
	if !sawReason {
		return false
	}
	// Find the transient pcs produced by that squash.
	var lo, hi uint64
	for i := range c.Trace.Insts {
		r := &c.Trace.Insts[i]
		if !r.Transient() || r.EnqCycle < since || r.PC <= st.TriggerPC {
			continue
		}
		if lo == 0 || r.PC < lo {
			lo = r.PC
		}
		if r.PC+4 > hi {
			hi = r.PC + 4
		}
	}
	if lo == 0 {
		return false
	}
	st.WindowLo, st.WindowHi = lo, hi
	return true
}

func trainingOverhead(st *gen.Stimulus, keep []bool) (to, eto int) {
	for i, p := range st.TriggerTrains {
		if keep != nil && (i >= len(keep) || !keep[i]) {
			continue
		}
		to += p.TrainInsts + p.PadInsts
		eto += p.TrainInsts
	}
	return to, eto
}

// Phase2Result reports window completion and coverage measurement. Results
// borrow the producing shard's stimulus and context buffers: they are valid
// until the shard's next Phase1/Phase2 call.
type Phase2Result struct {
	Stimulus  *gen.Stimulus
	Run       *DiffRun
	TaintGain bool // taints increased within the transient window
	NewPoints int  // new coverage points contributed
	Sims      int
}

// Phase2 implements Step 2.1/2.2 on the fuzzer's sequential pipeline; see
// uarchShard.phase2Into. The result is valid until the next phase call on
// this fuzzer.
func (f *Fuzzer) Phase2(p1 *Phase1Result) (*Phase2Result, error) {
	return f.seqShard().phase2Into(p1, f.coverage)
}

// phase2Into implements Step 2.1/2.2 with an explicit coverage sink (see
// CovSink): complete the window with secret access and encode blocks, run
// the diffIFT differential testbench, and measure taint coverage.
func (s *uarchShard) phase2Into(p1 *Phase1Result, sink CovSink) (*Phase2Result, error) {
	if err := s.gen.CompleteWindowInto(&s.st2, p1.Stimulus); err != nil {
		return nil, err
	}
	cst := &s.st2
	retries := s.f.opts.SecretRetries
	if retries < 1 {
		retries = 1
	}
	var res *Phase2Result
	newPoints := 0 // cumulative across retries: each attempt's log reaches the sink
	for attempt := 0; attempt < retries; attempt++ {
		opts := s.f.runOpts(uarch.IFTDiff, true)
		opts.Secret = rotateSecret(DefaultSecret, attempt)
		run := s.ctx.RunDiff(cst.BuildScheduleInto(&s.sched, p1.Keep), opts)
		pair := run.Pair
		r := &Phase2Result{Stimulus: cst, Run: run, Sims: 1}

		// Taint gain: the paper's criterion is taints increasing within the
		// transient window — compare the in-window peak to the pre-window
		// level.
		ws := pair.A.Trace.WindowSince(cst.WindowLo, cst.WindowHi, run.RTA.TransientStart())
		sums := pair.A.Trace.TaintSumByCycle
		if ws.FirstCycle >= 0 && ws.FirstCycle < len(sums) {
			before := sums[ws.FirstCycle]
			peak := before
			end := ws.LastCycle
			if end < 0 || end >= len(sums) {
				end = len(sums) - 1
			}
			for c := ws.FirstCycle; c <= end; c++ {
				if sums[c] > peak {
					peak = sums[c]
				}
			}
			r.TaintGain = peak > before
		}
		// Accumulate across attempts: every attempt's taints land in the
		// sink, so NewPoints must report the union's growth or campaign
		// coverage histories undercount retry-discovered points.
		newPoints += sink.AddFromLog(pair.A.Trace.TaintLog)
		r.NewPoints = newPoints
		if res != nil {
			r.Sims += res.Sims
		}
		res = r
		if res.TaintGain {
			break
		}
		// No propagation observed: retry with a different secret pair —
		// the pair may have coincided on a control signal (a diffIFT false
		// negative). The dedicated region makes this a reload, not a
		// regeneration.
	}
	return res, nil
}

// rotateSecret derives the attempt-th secret pair base: a byte rotation plus
// an attempt-dependent xor so consecutive retries disagree on every byte.
func rotateSecret(base []byte, attempt int) []byte {
	if attempt == 0 {
		return base
	}
	out := make([]byte, len(base))
	for i := range base {
		out[i] = base[(i+attempt)%len(base)] ^ byte(0x5a*attempt)
	}
	return out
}

// FindingKind classifies a reported leak.
type FindingKind int

const (
	// FindingTiming is a transient-window constant-time violation.
	FindingTiming FindingKind = iota
	// FindingEncoded is an exploitable encoded secret (live tainted sink).
	FindingEncoded
)

func (k FindingKind) String() string {
	if k == FindingTiming {
		return "timing-leak"
	}
	return "encoded-leak"
}

// Finding is one reported potential vulnerability.
type Finding struct {
	Kind       FindingKind
	AttackType string // "Meltdown" or "Spectre"
	Window     gen.TriggerType
	// Scenario is the stimulus' scenario-family name; empty on findings
	// that predate named scenarios (triage falls back to the window class's
	// canonical family).
	Scenario   string   `json:",omitempty"`
	Components []string // encoded / contended timing components
	BugLabels  []string // mechanism witnesses (B1-B5) observed during the run
	Seed       gen.Seed
	Iteration  int
}

// ScenarioName returns the finding's effective scenario family (canonical
// for its window class when the finding predates named scenarios; the raw
// window rendering when its class does not exist — hand-crafted findings).
func (f *Finding) ScenarioName() string {
	if f.Scenario != "" {
		return f.Scenario
	}
	if f.Window < 0 || f.Window >= gen.NumTriggerTypes {
		return f.Window.String()
	}
	return scenario.ByTrigger(f.Window).Name()
}

func (f *Finding) String() string {
	return fmt.Sprintf("%s %s scenario=%s window=%v components=%v bugs=%v",
		f.AttackType, f.Kind, f.ScenarioName(), f.Window, f.Components, f.BugLabels)
}

// Phase3Result carries the leakage analysis outcome.
type Phase3Result struct {
	Finding *Finding // nil when no exploitable leak
	// EncodedModules lists modules whose taint is attributable to the encode
	// block (after sanitisation diffing).
	EncodedModules []string
	// DeadSinksOnly is true when taints existed but all sinks were dead —
	// the false-positive class liveness filtering removes.
	DeadSinksOnly bool
	Sims          int
}

// Phase3 implements Step 3.1/3.2 on the fuzzer's sequential pipeline; see
// uarchShard.Phase3.
func (f *Fuzzer) Phase3(p1 *Phase1Result, p2 *Phase2Result) (*Phase3Result, error) {
	return f.seqShard().Phase3(p1, p2)
}

// Phase3 implements Step 3.1/3.2: constant-time analysis, encode
// sanitisation and tainted-sink liveness analysis. The primary run's
// observables (censuses, sinks, bug witnesses) are captured before the
// sanitisation rerun, which executes on the context's dedicated
// sanitisation slot.
func (s *uarchShard) Phase3(p1 *Phase1Result, p2 *Phase2Result) (*Phase3Result, error) {
	res := &Phase3Result{}
	cst := p2.Stimulus
	attack := "Spectre"
	if cst.Seed.SecretFaults || cst.Seed.MaskHigh {
		attack = "Meltdown"
	}

	// One census of the primary run serves both analyses: the timing
	// verdict names the FPU from it, and encode sanitisation diffs it
	// against the rerun's.
	pair := p2.Run.Pair
	s.census = pair.A.CensusInto(s.census[:0])

	// Step 3.1: transient-window constant-time execution analysis.
	wsA := pair.A.Trace.WindowSince(cst.WindowLo, cst.WindowHi, p2.Run.RTA.TransientStart())
	wsB := pair.B.Trace.WindowSince(cst.WindowLo, cst.WindowHi, p2.Run.RTB.TransientStart())
	durA := wsA.LastCycle - wsA.FirstCycle
	durB := wsB.LastCycle - wsB.FirstCycle
	totalDiff := pair.A.Cycle != pair.B.Cycle
	if (wsA.FirstCycle >= 0 && wsB.FirstCycle >= 0 && durA != durB) || totalDiff {
		res.Finding = &Finding{
			Kind:       FindingTiming,
			AttackType: attack,
			Window:     cst.Seed.Trigger,
			Scenario:   gen.ScenarioName(cst.Seed),
			Components: timingComponents(pair.A, s.census),
			BugLabels:  bugLabels(pair.A),
			Seed:       cst.Seed,
		}
		return res, nil
	}

	// Capture the primary run's sinks and witnesses before the sanitisation
	// rerun (the rerun shares the shard's context; a dedicated slot keeps
	// pair.A itself intact, but capturing first keeps the data flow
	// one-directional).
	sinks := pair.A.Sinks()
	labels := bugLabels(pair.A)

	// Encode sanitisation: rerun with the encode block nopped out and diff
	// the per-module taint censuses to isolate encode-block taints. Every
	// census lists the same modules in the same order, so the two compare
	// position by position.
	if err := s.gen.SanitizedInto(&s.st3, cst); err != nil {
		return nil, err
	}
	sanRun := s.ctx.RunDiffSan(s.st3.BuildScheduleInto(&s.sched, p1.Keep), s.f.runOpts(uarch.IFTDiff, false))
	res.Sims++
	s.sanCensus = sanRun.Pair.A.CensusInto(s.sanCensus[:0])
	for i, m := range s.census {
		if m.Tainted > s.sanCensus[i].Tainted {
			res.EncodedModules = append(res.EncodedModules, m.Module)
		}
	}
	sort.Strings(res.EncodedModules)
	if len(res.EncodedModules) == 0 {
		return res, nil
	}

	// Step 3.2: tainted-sink liveness analysis.
	var liveComponents []string
	anyDead := false
	for _, snk := range sinks {
		if !slices.Contains(res.EncodedModules, snk.Module) {
			continue
		}
		if !s.f.opts.UseLiveness || snk.Live {
			liveComponents = append(liveComponents, snk.Module)
		} else {
			anyDead = true
		}
	}
	liveComponents = dedup(liveComponents)
	if len(liveComponents) == 0 {
		res.DeadSinksOnly = anyDead
		return res, nil
	}
	res.Finding = &Finding{
		Kind:       FindingEncoded,
		AttackType: attack,
		Window:     cst.Seed.Trigger,
		Scenario:   gen.ScenarioName(cst.Seed),
		Components: liveComponents,
		BugLabels:  labels,
		Seed:       cst.Seed,
	}
	return res, nil
}

// timingComponents heuristically names the contended units for a timing
// finding from the core's bug witnesses and its census.
func timingComponents(c *uarch.Core, census []uarch.ModuleTaint) []string {
	var out []string
	if c.BugWitness["spectre-reload"] > 0 {
		out = append(out, "lsu")
	}
	if c.BugWitness["spectre-refetch-miss"] > 0 {
		out = append(out, "icache")
	}
	for _, m := range census {
		if m.Module == "fpu" && m.Tainted > 0 {
			out = append(out, "fpu")
		}
	}
	if len(out) == 0 {
		out = append(out, "lsu")
	}
	return dedup(out)
}

func bugLabels(c *uarch.Core) []string {
	var out []string
	for k, n := range c.BugWitness {
		if n > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// dedup returns a sorted copy of in without repeats.
func dedup(in []string) []string {
	out := slices.Clone(in)
	sort.Strings(out)
	return slices.Compact(out)
}
