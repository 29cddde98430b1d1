package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/mem"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// replayer re-executes a traced campaign's recorded iterations, barrier by
// barrier, through the modules' public calls, timing each layer: stimulus
// build and schedule (gen), DUT reset and Phase 1/2/3 simulation (uarch,
// swapmem, mem), the architectural pair (isadiff), coverage delta and merge
// and the analysis code between them (core), and the scheduler update
// (scenario). The uarch pipeline is rebuilt from the same calls the
// engine's shard pipeline makes; the isasim pipeline is driven as is, with
// its builds repeated beside it. Every iteration's outcome is checked
// against the campaign's report, which proves the replay measured the same
// work.
//
// Beside every replayed epoch, the target's own pipeline runs the same
// iterations through its RunIteration, on DUT state of its own. Its time is
// the program time the replay's layers are set against
// (trace.iter_coverage): taken within the same fraction of a second, both
// see the same machine, so the ratio falls when the replay leaves out work
// the program does and rises when it adds some. Alternating whole epochs,
// rather than single iterations, keeps each side's working set in the
// caches as the engine's own would be.
type replayer struct {
	opts   core.Options
	cfg    uarch.Config
	isasim core.Pipeline // non-nil when replaying the isasim target
	prog   core.Pipeline // the target's own pipeline, the program reference
	log    *spanLog
	shards []*replayShard
	cov    *core.Coverage
	sched  *scenario.Scheduler

	phaseErrs int
	builds    int
	cycles    int64
	// censusOn/censusOff total the Phase-2 pair runs with taint tracing on
	// and the same runs repeated with it off.
	censusOn, censusOff int64
	// isaGen totals the isasim builds repeated beside RunIteration.
	isaGen int64
	// progNS totals the program reference's RunIteration time.
	progNS   int64
	mismatch []string
}

// slot is one reusable DUT: an address space, a core and a swap runtime.
type slot struct {
	space *mem.Space
	core  *uarch.Core
	rt    *swapmem.Runtime
}

// prepare builds the slot on first use and resets it in place afterwards,
// as the engine's execution context does.
func (s *slot) prepare(secret []byte, cfg uarch.Config, mode uarch.IFTMode, sched *swapmem.Schedule, taint bool) {
	if s.space == nil {
		s.space = swapmem.NewSpace(secret)
		s.core = uarch.NewCore(cfg, s.space, mode)
		s.rt = swapmem.NewRuntime(s.core, s.space, sched)
	} else {
		swapmem.ResetSpace(s.space, secret)
		s.core.Reset(cfg, s.space, mode)
		s.rt.Rebind(s.core, s.space, sched)
	}
	s.core.TaintTraceOn = taint
}

type replayShard struct {
	g             *gen.Generator
	st1, st2, st3 gen.Stimulus
	sched         swapmem.Schedule
	keep          []bool
	single        slot
	diffA, diffB  slot
	sanA, sanB    slot
	isa           core.ShardPipeline
	delta         *core.Delta
	// prog and progDelta are the program reference's shard pipeline and
	// its own delta of the same epoch-start coverage.
	prog      core.ShardPipeline
	progDelta *core.Delta
}

func newReplayer(target string, seed int64, iters int, log *spanLog) (*replayer, error) {
	t, err := core.LookupTarget(target)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptionsFor(t)
	opts.Seed, opts.Iterations = seed, iters
	f := core.NewFuzzer(opts)
	opts = f.Options()
	if opts.Variant != gen.VariantDerived {
		return nil, fmt.Errorf("replay supports the derived training variant only")
	}
	policy, err := scenario.ParsePolicy(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	sched, err := scenario.NewSchedulerWithPrior(f.ScenarioFamilies(), policy, opts.FrontierPrior)
	if err != nil {
		return nil, err
	}
	rp := &replayer{opts: opts, cfg: f.Config(), log: log, cov: core.NewCoverage(), sched: sched, prog: t.NewPipeline(f)}
	if target == "isasim" {
		rp.isasim = t.NewPipeline(f)
	}
	for i := 0; i < opts.Shards; i++ {
		sh := &replayShard{g: gen.New(0), prog: rp.prog.NewShard()}
		if rp.isasim != nil {
			sh.isa = rp.isasim.NewShard()
		}
		rp.shards = append(rp.shards, sh)
	}
	return rp, nil
}

// run replays every iteration of the campaign in engine order: per epoch,
// shards in order, each shard's iterations in order against a delta of the
// epoch-start coverage; then the merge and the scheduler update.
func (rp *replayer) run(recs []iterRec, rep *core.Report) error {
	n := len(rep.Iters)
	if len(recs) != n {
		return fmt.Errorf("trace recorded %d iterations, report has %d", len(recs), n)
	}
	m, ns := rp.opts.MergeEvery, rp.opts.Shards
	for lo, epoch := 0, 0; lo < n; lo, epoch = lo+m, epoch+1 {
		hi := min(lo+m, n)
		for _, sh := range rp.shards {
			sh.delta = rp.cov.NewDelta()
			sh.progDelta = rp.cov.NewDelta()
		}
		// The program reference runs the epoch before the replay on even
		// epochs and after it on odd ones.
		passes := []bool{true, false}
		if epoch%2 == 1 {
			passes = []bool{false, true}
		}
		for _, prog := range passes {
			for s, sh := range rp.shards {
				first := lo - lo%ns + s
				if first < lo {
					first += ns
				}
				for i := first; i < hi; i += ns {
					if recs[i].iter != i {
						return fmt.Errorf("trace is missing iteration %d", i)
					}
					if prog {
						rp.compare(i, "program", rp.program(recs[i], sh), rep.Iters[i])
					} else {
						rp.compare(i, "replay", rp.iteration(recs[i], sh), rep.Iters[i])
					}
				}
			}
		}
		req := fmt.Sprintf("b/%d", epoch)
		id := rp.log.begin("core.merge", req, 0)
		for _, sh := range rp.shards {
			rp.cov.Absorb(sh.delta)
		}
		rp.log.end(id)
		yield := epochYield(rep.Iters[lo:hi])
		id = rp.log.begin("scenario.update", req, 0)
		rp.sched.Update(yield)
		rp.log.end(id)
	}
	if got := rp.cov.Count(); got != rep.Coverage {
		rp.mismatch = append(rp.mismatch, fmt.Sprintf("coverage %d, report %d", got, rep.Coverage))
	}
	for _, sc := range rep.Scenarios {
		w, mean, bonus := rp.sched.Probe(sc.Name)
		if w != sc.Weight || mean != sc.MeanYield || bonus != sc.ExplorationBonus {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("scheduler state of %s differs from the report", sc.Name))
		}
	}
	return nil
}

// epochYield is the engine's per-family epoch yield, from the report's
// iteration records.
func epochYield(iters []core.IterStat) map[string]scenario.Yield {
	out := map[string]scenario.Yield{}
	for _, it := range iters {
		y := out[it.Scenario]
		y.Picks++
		y.Points += it.NewPoints
		if it.Finding {
			y.Findings++
		}
		out[it.Scenario] = y
	}
	return out
}

// iteration replays one recorded iteration layer by layer.
func (rp *replayer) iteration(rec iterRec, sh *replayShard) core.Outcome {
	if rp.isasim != nil {
		return rp.isaIteration(rec, sh)
	}
	return rp.uarchIteration(rec, sh)
}

// program runs one recorded iteration through the target's own pipeline
// and times it: the program reference.
func (rp *replayer) program(rec iterRec, sh *replayShard) core.Outcome {
	id := rp.log.begin("program.iteration", fmt.Sprintf("it/%d", rec.iter), 0)
	out := sh.prog.RunIteration(rec.iter, rec.seed, sh.progDelta)
	rp.log.end(id)
	rp.progNS += rp.log.spans[id-1].dur()
	return out
}

func (rp *replayer) compare(i int, who string, out core.Outcome, want core.IterStat) {
	if out.Triggered != want.Triggered || out.TaintGain != want.TaintGain ||
		(out.Finding != nil) != want.Finding || out.Sims != want.Sims || out.NewPoints != want.NewPoints {
		if len(rp.mismatch) < 5 {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("iteration %d: %s triggered=%t gain=%t finding=%t sims=%d points=%d, report %t %t %t %d %d",
				i, who, out.Triggered, out.TaintGain, out.Finding != nil, out.Sims, out.NewPoints,
				want.Triggered, want.TaintGain, want.Finding, want.Sims, want.NewPoints))
		} else {
			rp.mismatch[4] = "more mismatching iterations"
		}
	}
}

// timed runs fn inside a span.
func (rp *replayer) timed(name, req string, parent int, fn func()) {
	id := rp.log.begin(name, req, parent)
	fn()
	rp.log.end(id)
}

// build runs one stimulus-construction call; a failure is a phase error,
// which the engine drops silently and the replay counts.
func (rp *replayer) build(req string, parent int, fn func() error) bool {
	var err error
	rp.builds++
	rp.timed("gen.build", req, parent, func() { err = fn() })
	if err != nil {
		rp.phaseErrs++
		return false
	}
	return true
}

func (rp *replayer) schedule(req string, parent int, st *gen.Stimulus, sh *replayShard, keep []bool) *swapmem.Schedule {
	var sched *swapmem.Schedule
	rp.timed("gen.schedule", req, parent, func() { sched = st.BuildScheduleInto(&sh.sched, keep) })
	return sched
}

// runSingle is ExecContext.RunSingle on the shard's single-DUT slot.
func (rp *replayer) runSingle(req string, parent int, phase string, sh *replayShard, sched *swapmem.Schedule) *core.SingleRun {
	rp.timed("uarch.reset", req, parent, func() {
		sh.single.prepare(core.DefaultSecret, rp.cfg, uarch.IFTOff, sched, false)
	})
	rp.timed(phase, req, parent, func() {
		sh.single.rt.Start()
		rp.cycles += int64(sh.single.core.Run(rp.opts.MaxCycles))
	})
	return &core.SingleRun{Core: sh.single.core, RT: sh.single.rt}
}

// runPair is ExecContext's differential run on slots a and b; it returns
// the pair and the simulation's duration.
func (rp *replayer) runPair(req string, parent int, phase string, a, b *slot, sched *swapmem.Schedule, secret []byte, taint bool) (*uarch.Pair, int64) {
	rp.timed("uarch.reset", req, parent, func() {
		a.prepare(secret, rp.cfg, uarch.IFTDiff, sched, taint)
		b.prepare(swapmem.FlipSecret(secret), rp.cfg, uarch.IFTDiff, sched, false)
	})
	id := rp.log.begin(phase, req, parent)
	a.rt.Start()
	b.rt.Start()
	p := uarch.NewPair(a.core, b.core)
	ca, cb := p.Run(rp.opts.MaxCycles)
	rp.log.end(id)
	rp.cycles += int64(ca + cb)
	return p, rp.log.spans[id-1].dur()
}

// censusRefs repeats an iteration's Phase-2 pair runs with taint tracing
// off and returns their simulation time: the reference the per-cycle census
// cost is measured against. It runs once the iteration's analysis is done,
// on the Phase-2 slots themselves, so the replay keeps the engine's DUT
// footprint and the measured phases see the engine's cache state. Its span
// (schedule rebuild and reset included) is excluded from the iteration's
// layer accounting, and its cycles are not counted.
func (rp *replayer) censusRefs(req string, parent int, sh *replayShard, st *gen.Stimulus, keep []bool, secrets [][]byte) int64 {
	if len(secrets) == 0 {
		return 0
	}
	id := rp.log.begin("uarch.census_ref", req, parent)
	defer rp.log.end(id)
	sched := st.BuildScheduleInto(&sh.sched, keep)
	var took int64
	for _, secret := range secrets {
		sh.diffA.prepare(secret, rp.cfg, uarch.IFTDiff, sched, false)
		sh.diffB.prepare(swapmem.FlipSecret(secret), rp.cfg, uarch.IFTDiff, sched, false)
		start := rp.log.now()
		sh.diffA.rt.Start()
		sh.diffB.rt.Start()
		uarch.NewPair(sh.diffA.core, sh.diffB.core).Run(rp.opts.MaxCycles)
		took += rp.log.now() - start
	}
	return took
}

// rotateSecret is the engine's Phase-2 retry secret derivation.
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

// uarchIteration is one three-phase iteration, rebuilt from the calls the
// engine's uarch shard pipeline makes.
func (rp *replayer) uarchIteration(rec iterRec, sh *replayShard) core.Outcome {
	req := fmt.Sprintf("it/%d", rec.iter)
	root := rp.log.begin("replay.iteration", req, 0)
	defer rp.log.end(root)
	out := core.Outcome{}

	// Phase 1: build, trigger, reduce.
	if !rp.build(req, root, func() error { return sh.g.BuildStimulusInto(&sh.st1, rec.seed) }) {
		return out
	}
	st := &sh.st1
	keep := sh.keep[:0]
	for range st.TriggerTrains {
		keep = append(keep, true)
	}
	sh.keep = keep
	sims := 0
	triggered := func(sched *swapmem.Schedule) bool {
		run := rp.runSingle(req, root, "uarch.phase1", sh, sched)
		sims++
		var ok bool
		// The random-training relocation path never fires under the
		// derived variant the replay is limited to.
		rp.timed("core.analysis", req, root, func() { ok = core.WindowTriggered(run, st) })
		return ok
	}
	if !triggered(rp.schedule(req, root, st, sh, keep)) {
		out.Sims = sims
		return out
	}
	if rp.opts.UseReduction {
		for i := range st.TriggerTrains {
			keep[i] = false
			if !triggered(rp.schedule(req, root, st, sh, keep)) {
				keep[i] = true
			}
		}
	}
	out.Sims, out.Triggered = sims, true

	// Phase 2: complete the window, run the differential pair, measure.
	if !rp.build(req, root, func() error { return sh.g.CompleteWindowInto(&sh.st2, st) }) {
		return out
	}
	cst := &sh.st2
	retries := max(rp.opts.SecretRetries, 1)
	var pair *uarch.Pair
	var secrets [][]byte
	defer func() { rp.censusOff += rp.censusRefs(req, root, sh, cst, keep, secrets) }()
	for attempt := 0; attempt < retries; attempt++ {
		secret := rotateSecret(core.DefaultSecret, attempt)
		sched := rp.schedule(req, root, cst, sh, keep)
		var on int64
		pair, on = rp.runPair(req, root, "uarch.phase2", &sh.diffA, &sh.diffB, sched, secret, true)
		out.Sims++
		rp.censusOn += on
		secrets = append(secrets, secret)

		gain := false
		rp.timed("core.analysis", req, root, func() {
			ws := pair.A.Trace.WindowSince(cst.WindowLo, cst.WindowHi, sh.diffA.rt.TransientStart())
			sums := pair.A.Trace.TaintSumByCycle
			if ws.FirstCycle >= 0 && ws.FirstCycle < len(sums) {
				before, peak := sums[ws.FirstCycle], sums[ws.FirstCycle]
				end := ws.LastCycle
				if end < 0 || end >= len(sums) {
					end = len(sums) - 1
				}
				for c := ws.FirstCycle; c <= end; c++ {
					peak = max(peak, sums[c])
				}
				gain = peak > before
			}
		})
		rp.timed("core.coverage_delta", req, root, func() { out.NewPoints += sh.delta.AddFromLog(pair.A.Trace.TaintLog) })
		out.TaintGain = gain
		if gain {
			break
		}
	}
	out.Measured = true
	if !out.TaintGain {
		return out
	}

	// Phase 3: constant-time analysis, encode sanitisation, liveness.
	var timing bool
	var full map[string]int
	var sinks []uarch.Sink
	rp.timed("core.analysis", req, root, func() {
		wsA := pair.A.Trace.WindowSince(cst.WindowLo, cst.WindowHi, sh.diffA.rt.TransientStart())
		wsB := pair.B.Trace.WindowSince(cst.WindowLo, cst.WindowHi, sh.diffB.rt.TransientStart())
		timing = (wsA.FirstCycle >= 0 && wsB.FirstCycle >= 0 && wsA.LastCycle-wsA.FirstCycle != wsB.LastCycle-wsB.FirstCycle) ||
			pair.A.Cycle != pair.B.Cycle
		if !timing {
			full = censusMap(pair.A.Census())
			sinks = pair.A.Sinks()
		}
	})
	if timing {
		out.Finding = &core.Finding{Kind: core.FindingTiming, Iteration: rec.iter}
		return out
	}
	if !rp.build(req, root, func() error { return sh.g.SanitizedInto(&sh.st3, cst) }) {
		return out
	}
	sched := rp.schedule(req, root, &sh.st3, sh, keep)
	san, _ := rp.runPair(req, root, "uarch.phase3", &sh.sanA, &sh.sanB, sched, core.DefaultSecret, false)
	out.Sims++
	rp.timed("core.analysis", req, root, func() {
		base := censusMap(san.A.Census())
		encoded := map[string]bool{}
		for m, n := range full {
			if n > base[m] {
				encoded[m] = true
			}
		}
		live, dead := false, false
		for _, snk := range sinks {
			if !encoded[snk.Module] {
				continue
			}
			if !rp.opts.UseLiveness || snk.Live {
				live = true
			} else {
				dead = true
			}
		}
		if live {
			out.Finding = &core.Finding{Kind: core.FindingEncoded, Iteration: rec.iter}
		} else {
			out.DeadSinksOnly = dead
		}
	})
	return out
}

func censusMap(census []uarch.ModuleTaint) map[string]int {
	out := make(map[string]int, len(census))
	for _, m := range census {
		out[m.Module] = m.Tainted
	}
	return out
}

// isaIteration drives the isasim shard pipeline's RunIteration, with the
// builds it performs repeated beside it so its gen share can be
// subtracted: isadiff.exec is RunIteration minus its coverage-sink calls
// and minus those builds.
func (rp *replayer) isaIteration(rec iterRec, sh *replayShard) core.Outcome {
	req := fmt.Sprintf("it/%d", rec.iter)
	root := rp.log.begin("replay.iteration", req, 0)
	defer rp.log.end(root)

	genStart := rp.log.now()
	ok := rp.build(req, root, func() error { return sh.g.BuildStimulusInto(&sh.st1, rec.seed) }) &&
		rp.build(req, root, func() error { return sh.g.CompleteWindowInto(&sh.st2, &sh.st1) })
	if ok {
		rp.schedule(req, root, &sh.st2, sh, nil)
	}
	rp.isaGen += rp.log.now() - genStart

	id := rp.log.begin("isadiff.iteration", req, root)
	sink := &replaySink{inner: sh.delta, log: rp.log, req: req, parent: id}
	out := sh.isa.RunIteration(rec.iter, rec.seed, sink)
	rp.log.end(id)
	return out
}

// replaySink records the isasim pipeline's coverage-delta calls as spans.
type replaySink struct {
	inner  core.CovSink
	log    *spanLog
	req    string
	parent int
}

func (s *replaySink) AddFromLog(log []uarch.TaintSample) int {
	id := s.log.begin("core.coverage_delta", s.req, s.parent)
	n := s.inner.AddFromLog(log)
	s.log.end(id)
	return n
}

// allocsPerBuild measures heap allocations per stimulus-construction call
// over the recorded seeds (up to limit), with a warm generator.
func allocsPerBuild(recs []iterRec, limit int) float64 {
	g := gen.New(0)
	var st1, st2, st3 gen.Stimulus
	buildAll := func() int {
		builds := 0
		for i, r := range recs {
			if i >= limit {
				break
			}
			builds++
			if g.BuildStimulusInto(&st1, r.seed) != nil {
				continue
			}
			builds++
			if g.CompleteWindowInto(&st2, &st1) != nil {
				continue
			}
			if r.out.TaintGain {
				builds++
				g.SanitizedInto(&st3, &st2) //nolint:errcheck // a failed build still counts its allocations
			}
		}
		return builds
	}
	buildAll() // warm the generator's caches and scratch buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	builds := buildAll()
	runtime.ReadMemStats(&after)
	if builds == 0 {
		return 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(builds)
}

// familyTimes groups a traced campaign's RunIteration spans by the seed's
// scenario family: picks and mean iteration time per family, measured, not
// prorated.
func familyTimes(recs []iterRec) map[string][2]float64 {
	sum := map[string]int64{}
	cnt := map[string]int{}
	for _, r := range recs {
		f := gen.ScenarioName(r.seed)
		sum[f] += r.end - r.start
		cnt[f]++
	}
	out := map[string][2]float64{}
	names := make([]string, 0, len(cnt))
	for f := range cnt {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		out[f] = [2]float64{float64(cnt[f]), us(time.Duration(sum[f] / int64(cnt[f])))}
	}
	return out
}
