package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dejavuzz/internal/core"
	"dejavuzz/internal/scenario"
)

type metricDef struct{ name, unit string }

// perLayer is the per-layer metric set every workload reports with tracing
// on; a layer the workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"uarch.phase1_us", "us"}, {"uarch.phase2_us", "us"}, {"uarch.phase3_us", "us"},
		{"uarch.census_us", "us"}, {"uarch.reset_us", "us"},
		{"uarch.cycles_per_iter", "cycle"}, {"uarch.host_ns_per_cycle", "ns"},
		{"gen.build_us", "us"}, {"gen.schedule_us", "us"}, {"gen.builds_per_iter", "count"},
		{"gen.allocs_per_build", "count"}, {"gen.phase_errors", "count"},
		{"isadiff.exec_us", "us"},
		{"core.iter_us", "us"}, {"core.seed_draw_us", "us"}, {"core.barrier_us", "us"},
		{"core.barrier_wait_us", "us"}, {"core.coverage_delta_us", "us"}, {"core.merge_us", "us"},
		{"core.analysis_us", "us"},
		{"core.sims_per_iter", "count"}, {"core.allocs_per_iter", "count"}, {"core.bytes_per_iter", "B"},
		{"core.coverage_points", "count"}, {"core.findings", "count"},
		{"core.triggered_ratio", "ratio"}, {"core.taint_gain_ratio", "ratio"}, {"core.finding_ratio", "ratio"},
		{"core.snapshot_ms", "ms"}, {"core.checkpoint_kb", "KB"}, {"core.resume_ms", "ms"},
		{"atomicfile.write_ms", "ms"},
		{"scenario.update_us", "us"},
		{"triage.add_ms", "ms"}, {"triage.store_kb", "KB"}, {"triage.bugs", "count"},
		{"corpus.harvest_ms", "ms"}, {"corpus.warmstart_ms", "ms"}, {"corpus.entries", "count"},
		{"server.registry_kb", "KB"}, {"server.events_dropped", "count"},
		{"trace.overhead_pct", "%"}, {"trace.iter_coverage", "ratio"}, {"trace.campaign_coverage", "ratio"},
		{"trace.uarch_share", "ratio"}, {"trace.gen_checkpoint_share", "ratio"}, {"trace.consumer_ms", "ms"},
	}
	for _, f := range scenario.Names() {
		defs = append(defs, metricDef{"family." + f + ".picks", "count"}, metricDef{"family." + f + ".iter_us", "us"})
	}
	return defs
}

// fillLayers reports 0 for every per-layer metric the workload did not
// exercise.
func fillLayers(r *report) {
	for _, d := range perLayer() {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0, d.unit)
		}
	}
}

// outcomeRatios sets the deterministic useful-outcome ratios from a
// report's iteration records: triggered per iteration, taint gain per
// triggered iteration, finding per taint-gain iteration.
func outcomeRatios(r *report, iters []core.IterStat) {
	var trig, gain, find int
	for _, it := range iters {
		if it.Triggered {
			trig++
		}
		if it.TaintGain {
			gain++
		}
		if it.Finding {
			find++
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("core.triggered_ratio", ratio(trig, len(iters)), "ratio")
	r.set("core.taint_gain_ratio", ratio(gain, trig), "ratio")
	r.set("core.finding_ratio", ratio(find, gain), "ratio")
}

// traceCampaign is the traced form of a single-campaign workload: untraced
// and traced runs alternate twice (their difference is the tracing
// overhead), then the first traced run is replayed layer by layer, beside
// the program reference.
func traceCampaign(e *env, s campaignSpec) error {
	r := e.rep
	n := s.size(e)
	r.Meta.Sizes["iterations"] = n
	r.Meta.Sizes["workers"] = s.workers
	dir, err := e.scratch("trace")
	if err != nil {
		return err
	}

	var (
		untraced       []*sessionResult
		traces         []*campaignTrace
		allocs, bytes  float64
		plain, tracedT []float64
	)
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		u, err := s.runOnce(e, s.workers, dir, false)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		if i == 0 {
			allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
			bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		}
		untraced = append(untraced, u)
		rep, tr, err := s.tracedRun(e, dir)
		if err != nil {
			return err
		}
		r.Attempted += int64(u.saves)
		r.Failed += int64(u.saveErrs)
		for _, b := range tr.barriers {
			if b.bytes > 0 {
				r.Attempted++
				if b.saveErr != nil {
					r.Failed++
				}
			}
		}
		traces = append(traces, tr)
		plain = append(plain, sec(u.run))
		tracedT = append(tracedT, sec(time.Duration(tr.wall())))
		r.Attempted += int64(2 * n)
		r.sameDigest(fmt.Sprintf("traced-vs-untraced-%d", i+1), wantDigest(e, untraced[0].rep), digest(rep))
	}
	r.Meta.Reps = 2
	base := untraced[0].rep
	r.sameDigest("untraced-repeat", digest(base), digest(untraced[1].rep))
	r.Counters = reportCounters(s.target, base)
	r.Counters.CheckpointBytes = untraced[0].ckptBytes

	tr := traces[0]
	log := &spanLog{origin: tr.origin}
	rp, err := newReplayer(s.target, e.seed, n, log)
	if err != nil {
		return err
	}
	if err := rp.run(tr.iters(), base); err != nil {
		return err
	}
	r.expect("replay-matches-report", len(rp.mismatch) == 0, "%v", rp.mismatch)
	r.Counters.SimCycles = rp.cycles
	campaignSpans := tr.campaignSpans(rp.opts.MergeEvery)
	path := filepath.Join(e.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := writeSpans(path, campaignSpans, log.spans); err != nil {
		return err
	}
	r.note("spans written to %s", path)

	overhead := (median(tracedT) - median(plain)) / median(plain) * 100
	campaignLayers(r, s, n, tr, campaignSpans, rp, log.spans, tr.iters())
	r.set("trace.overhead_pct", overhead, "%")
	r.set("core.allocs_per_iter", allocs, "count")
	r.set("core.bytes_per_iter", bytes, "B")
	r.set("core.sims_per_iter", float64(base.Sims)/float64(n), "count")
	r.set("core.coverage_points", float64(base.Coverage), "count")
	r.set("core.findings", float64(len(base.Findings)), "count")
	outcomeRatios(r, base.Iters)
	fillLayers(r)
	return nil
}

// iterTime is the traced program's RunIteration time summed over its
// shards, and the engine time between a shard's consecutive iterations of
// one epoch (seed draw, feedback).
func (t *campaignTrace) iterTime(mergeEvery int) (iterNS, gapNS int64) {
	for _, recs := range t.shards {
		for i, rec := range recs {
			iterNS += rec.end - rec.start
			if i > 0 && rec.iter/mergeEvery == recs[i-1].iter/mergeEvery {
				gapNS += rec.start - recs[i-1].end
			}
		}
	}
	return iterNS, gapNS
}

// wall is the traced campaign's run time, excluding the resume's set-up.
func (t *campaignTrace) wall() int64 {
	return t.end - t.start - (t.resume[1] - t.resume[0])
}

// campaignLayers derives the per-layer metrics of one traced campaign from
// its own spans (iterations, seed draw, barriers, checkpoint) and from the
// replay's spans (the layers inside an iteration).
func campaignLayers(r *report, s campaignSpec, n int, tr *campaignTrace, cspans []span,
	rp *replayer, rspans []span, recs []iterRec) {
	iters := float64(n)
	self := selfTimes(rspans)
	count := map[string]int{}
	for _, sp := range rspans {
		count[sp.Name]++
	}
	iterNS, gapNS := tr.iterTime(rp.opts.MergeEvery)
	perIter := func(ns int64) float64 { return us(time.Duration(ns)) / iters }
	perCall := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return us(time.Duration(self[name])) / float64(count[name])
	}

	// Inside an iteration (replay).
	sim := self["uarch.phase1"] + self["uarch.phase2"] + self["uarch.phase3"]
	r.set("uarch.phase1_us", perIter(self["uarch.phase1"]), "us")
	r.set("uarch.phase2_us", perIter(self["uarch.phase2"]), "us")
	r.set("uarch.phase3_us", perIter(self["uarch.phase3"]), "us")
	r.set("uarch.census_us", perIter(rp.censusOn-rp.censusOff), "us")
	r.set("uarch.reset_us", perCall("uarch.reset"), "us")
	r.set("uarch.cycles_per_iter", float64(rp.cycles)/iters, "cycle")
	if rp.cycles > 0 {
		r.set("uarch.host_ns_per_cycle", float64(sim)/float64(rp.cycles), "ns")
	}
	genNS := self["gen.build"] + self["gen.schedule"]
	r.set("gen.build_us", perIter(self["gen.build"]), "us")
	r.set("gen.schedule_us", perIter(self["gen.schedule"]), "us")
	r.set("gen.builds_per_iter", float64(rp.builds)/iters, "count")
	r.set("gen.allocs_per_build", allocsPerBuild(recs, 1000), "count")
	r.set("gen.phase_errors", float64(rp.phaseErrs), "count")
	if rp.isasim != nil {
		// isadiff.exec is RunIteration minus its sink calls (its span's
		// self time) minus the builds it performs (their repeated twin).
		r.set("isadiff.exec_us", perIter(self["isadiff.iteration"]-rp.isaGen), "us")
	}
	r.set("core.coverage_delta_us", perIter(self["core.coverage_delta"]), "us")
	r.set("core.analysis_us", perIter(self["core.analysis"]), "us")
	r.set("core.merge_us", perCall("core.merge"), "us")
	r.set("scenario.update_us", perCall("scenario.update"), "us")

	// Named layers' self time inside an iteration, set against the program
	// reference's RunIteration time. The census reference runs, the replay's
	// own bookkeeping and the barrier work are not part of it.
	layered := int64(0)
	for name, ns := range self {
		switch name {
		case "replay.iteration", "program.iteration", "uarch.census_ref", "core.merge", "scenario.update":
		default:
			layered += ns
		}
	}
	if rp.isasim != nil {
		// The twin builds sit beside RunIteration, not inside it.
		layered -= rp.isaGen
	}
	r.set("trace.iter_coverage", float64(layered)/float64(rp.progNS), "ratio")
	r.set("trace.uarch_share", float64(sim+self["uarch.reset"])/float64(rp.progNS), "ratio")

	// The traced campaign's own timeline.
	r.set("core.iter_us", perIter(iterNS), "us")
	r.set("core.seed_draw_us", perIter(gapNS), "us")
	var barrierNS, hookNS, waitNS, snapNS, writeNS int64
	saves := 0
	for _, sp := range cspans {
		switch sp.Name {
		case "core.barrier":
			barrierNS += sp.dur()
		case "core.barrier_hook":
			hookNS += sp.dur()
		case "core.snapshot", "core.encode":
			snapNS += sp.dur()
		case "atomicfile.write":
			writeNS += sp.dur()
			saves++
		}
	}
	for _, w := range barrierWaits(tr, rp.opts.MergeEvery, s.workers) {
		waitNS += w
	}
	nb := float64(len(tr.barriers))
	r.set("core.barrier_us", us(time.Duration(barrierNS))/nb, "us")
	r.set("core.barrier_wait_us", us(time.Duration(waitNS))/nb, "us")
	if saves > 0 {
		r.set("core.snapshot_ms", ms(time.Duration(snapNS))/float64(saves), "ms")
		r.set("atomicfile.write_ms", ms(time.Duration(writeNS))/float64(saves), "ms")
		last := tr.barriers[len(tr.barriers)-1]
		for _, b := range tr.barriers {
			if b.bytes > 0 {
				last = b
			}
		}
		r.set("core.checkpoint_kb", float64(last.bytes)/1024, "KB")
	}
	if tr.resume[1] != 0 {
		r.set("core.resume_ms", ms(time.Duration(tr.resume[1]-tr.resume[0])), "ms")
	}
	wall := tr.wall()
	covered := float64(iterNS+gapNS)/float64(s.workers) + float64(barrierNS+hookNS)
	r.set("trace.campaign_coverage", covered/float64(wall), "ratio")
	genEstimate := float64(genNS)
	if rp.isasim != nil {
		genEstimate = float64(rp.isaGen)
	}
	r.set("trace.gen_checkpoint_share", (genEstimate+float64(snapNS+writeNS))/float64(wall), "ratio")

	fams := familyTimes(recs)
	for name, v := range fams {
		r.set("family."+name+".picks", v[0], "count")
		r.set("family."+name+".iter_us", v[1], "us")
	}
}

// barrierWaits reconstructs, per barrier, how long the first worker to
// finish its last shard sat idle waiting for the slowest one. Workers take
// whole shards in shard order, so each shard's interval within an epoch is
// assigned to the worker that became free first.
func barrierWaits(tr *campaignTrace, mergeEvery, workers int) []int64 {
	if workers < 2 {
		return nil
	}
	type interval struct{ start, end int64 }
	epochs := map[int][]interval{}
	for _, recs := range tr.shards {
		cur := map[int]*interval{}
		for _, rec := range recs {
			ep := rec.iter / mergeEvery
			iv := cur[ep]
			if iv == nil {
				iv = &interval{rec.start, rec.end}
				cur[ep] = iv
			}
			iv.end = rec.end
		}
		for ep, iv := range cur {
			epochs[ep] = append(epochs[ep], *iv)
		}
	}
	var out []int64
	for _, ivs := range epochs {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		free := make([]int64, workers)
		for i := range free {
			free[i] = -1
		}
		for _, iv := range ivs {
			w := 0
			for i := range free {
				if free[i] < free[w] {
					w = i
				}
			}
			free[w] = iv.end
		}
		lo, hi := free[0], free[0]
		for _, f := range free {
			lo, hi = min(lo, f), max(hi, f)
		}
		if lo >= 0 {
			out = append(out, hi-lo)
		}
	}
	return out
}
