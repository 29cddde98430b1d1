package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dejavuzz"
	"dejavuzz/internal/triage"
)

// campaignSpec is the fixed configuration of one single-campaign workload.
type campaignSpec struct {
	name   string
	target string
	// iters is the campaign length; smokeIters the self-test length.
	iters, smokeIters int
	workers           int
	// resume turns on checkpoint autosave; the campaign pauses at the first
	// barrier past its midpoint and resumes from the saved file.
	resume bool
	// covN and bugsK are the time-to-coverage and time-to-bugs targets
	// (0 = not reported on this workload).
	covN, bugsK int
}

var (
	boomFuzz = campaignSpec{
		name: "boom-fuzz", target: "boom", iters: 3000, smokeIters: 192, workers: 1,
		covN: 70, bugsK: 100,
	}
	isasimResume = campaignSpec{
		name: "isasim-resume", target: "isasim", iters: 24000, smokeIters: 768, workers: 1,
		resume: true,
	}
	xiangshanParallel = campaignSpec{
		name: "xiangshan-parallel", target: "xiangshan", iters: 6000, smokeIters: 256, workers: 2,
		covN: 95, bugsK: 100,
	}
)

// Set-up is probed probesPerRep times after every repetition, so the
// samples spread over the whole window and its machine phases, and topped
// up to at least minProbes after the window; setup_s is their median. On a
// shared host the machine's speed can move over a few seconds, so a median
// of samples taken in one burst would inherit that burst's phase.
const (
	probesPerRep = 16
	minProbes    = 64
)

func (s campaignSpec) size(e *env) int {
	if e.smoke {
		return s.smokeIters
	}
	return s.iters
}

func (s campaignSpec) options(e *env, workers int) []dejavuzz.Option {
	return []dejavuzz.Option{
		dejavuzz.WithSeed(e.seed),
		dejavuzz.WithIterations(s.size(e)),
		dejavuzz.WithWorkers(workers),
	}
}

// sessionResult is one measured campaign execution.
type sessionResult struct {
	rep *dejavuzz.Report
	// setup is New + Start, or LoadCheckpoint + Resume for a resumed campaign.
	setup time.Duration
	// run is the time from Start returning to EventDone; for a paused
	// campaign both halves count.
	run time.Duration
	// timeToCov/timeToBugs are the times from Start returning to the first
	// epoch at or above the workload's targets (-1 when never reached);
	// itersToCov/itersToBugs are the same probes in iterations.
	timeToCov, timeToBugs   time.Duration
	itersToCov, itersToBugs int
	saves, saveErrs         int
	// midCheckpoint is a copy of the paused campaign's checkpoint file.
	midCheckpoint []byte
	ckptBytes     int64
}

// drain consumes one session's event stream. It tracks progress probes
// relative to started and, when pauseAfter > 0, pauses the session at the
// first epoch that completes more than pauseAfter iterations.
type drain struct {
	spec       campaignSpec
	started    time.Time
	pauseAfter int
	sigs       map[triage.Signature]bool

	res    *sessionResult
	doneAt time.Time
	paused bool
}

func (d *drain) consume(sess *dejavuzz.Session) {
	for ev := range sess.Events() {
		switch ev.Kind {
		case dejavuzz.EventFinding:
			d.sigs[triage.Compute(d.spec.target, ev.Finding)] = true
		case dejavuzz.EventEpoch:
			at := time.Since(d.started)
			if d.spec.covN > 0 && d.res.itersToCov < 0 && ev.Coverage >= d.spec.covN {
				d.res.timeToCov, d.res.itersToCov = at, ev.Done
			}
			if d.spec.bugsK > 0 && d.res.itersToBugs < 0 && len(d.sigs) >= d.spec.bugsK {
				d.res.timeToBugs, d.res.itersToBugs = at, ev.Done
			}
			if d.pauseAfter > 0 && !d.paused && ev.Done > d.pauseAfter {
				d.paused = true
				// The engine never blocks on this stream (its buffer holds
				// every event), so pausing from the consumer is safe; the
				// stop lands at the next barrier the engine reaches.
				sess.Pause()
			}
		case dejavuzz.EventCheckpointSaved:
			d.res.saves++
			if ev.Err != nil {
				d.res.saveErrs++
			}
		case dejavuzz.EventDone:
			d.doneAt = time.Now()
			d.res.rep = ev.Report
		}
	}
}

// runOnce executes the workload's campaign once as a streaming session.
func (s campaignSpec) runOnce(e *env, workers int, dir string, keepMid bool) (*sessionResult, error) {
	n := s.size(e)
	opts := s.options(e, workers)
	path := filepath.Join(dir, s.name+".ckpt.json")
	if s.resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		opts = append(opts, dejavuzz.WithCheckpointFile(path))
	}
	res := &sessionResult{timeToCov: -1, timeToBugs: -1, itersToCov: -1, itersToBugs: -1}

	t0 := time.Now()
	c, err := dejavuzz.New(s.target, opts...)
	if err != nil {
		return nil, err
	}
	sess, err := c.Start(context.Background())
	if err != nil {
		return nil, err
	}
	started := time.Now()
	res.setup = started.Sub(t0)
	d := &drain{spec: s, started: started, sigs: map[triage.Signature]bool{}, res: res}
	if s.resume {
		d.pauseAfter = n / 2
	}
	d.consume(sess)
	res.run = d.doneAt.Sub(started)
	if !s.resume {
		if res.rep == nil {
			return nil, fmt.Errorf("%s campaign ended without a report", s.name)
		}
		return res, nil
	}
	if res.rep != nil {
		return nil, fmt.Errorf("%s campaign finished before its midpoint pause", s.name)
	}
	if keepMid {
		if res.midCheckpoint, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}

	// The resumed half: LoadCheckpoint + Resume is this workload's set-up.
	t1 := time.Now()
	ck, err := dejavuzz.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	sess2, err := c.Resume(context.Background(), ck)
	if err != nil {
		return nil, err
	}
	resumed := time.Now()
	res.setup = resumed.Sub(t1)
	d2 := &drain{spec: s, started: resumed, sigs: d.sigs, res: res}
	d2.consume(sess2)
	res.run += d2.doneAt.Sub(resumed)
	if res.rep == nil {
		return nil, fmt.Errorf("%s resumed campaign ended without a report", s.name)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.ckptBytes = st.Size()
	return res, nil
}

// probeSetup times one set-up of the workload's campaign: New + Start (or
// LoadCheckpoint + Resume of the midpoint checkpoint) on an
// already-cancelled context, so the engine stops before its first epoch.
// Each probe starts from a collected heap, so every sample does the same
// allocation work.
func (s campaignSpec) probeSetup(e *env, dir string, mid []byte) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		sess *dejavuzz.Session
		took time.Duration
	)
	if s.resume {
		path := filepath.Join(dir, "probe.ckpt.json")
		if err := os.WriteFile(path, mid, 0o644); err != nil {
			return 0, err
		}
		c, err := dejavuzz.New(s.target, s.options(e, s.workers)...)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		ck, err := dejavuzz.LoadCheckpoint(path)
		if err != nil {
			return 0, err
		}
		sess, err = c.Resume(ctx, ck)
		if err != nil {
			return 0, err
		}
		took = time.Since(t0)
	} else {
		runtime.GC()
		t0 := time.Now()
		c, err := dejavuzz.New(s.target, s.options(e, s.workers)...)
		if err != nil {
			return 0, err
		}
		sess, err = c.Start(ctx)
		if err != nil {
			return 0, err
		}
		took = time.Since(t0)
	}
	for range sess.Events() {
	}
	return took, nil
}

// runCampaign measures one single-campaign workload with tracing off.
func runCampaign(e *env, s campaignSpec) error {
	r := e.rep
	n := s.size(e)
	r.Meta.Sizes["iterations"] = n
	r.Meta.Sizes["workers"] = s.workers
	dir, err := e.scratch("campaign")
	if err != nil {
		return err
	}

	if !resetPeakRSS() {
		r.note("peak RSS counter could not be reset; peak_rss_mb covers the whole process")
	}
	// At least two repetitions, so every run checks that the same code and
	// seed reproduce the same report. Only the first report is kept: the
	// others are digested and dropped, so the memory the benchmark holds
	// does not grow with the number of repetitions.
	var (
		runs   []*sessionResult
		want   string
		setups []time.Duration
	)
	probe := func(k int) error {
		for ; k > 0; k-- {
			d, err := s.probeSetup(e, dir, runs[0].midCheckpoint)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		return nil
	}
	window := time.Now()
	for len(runs) < 2 || time.Since(window) < e.seconds {
		res, err := s.runOnce(e, s.workers, dir, len(runs) == 0)
		if err != nil {
			return err
		}
		r.Attempted += int64(len(res.rep.Iters) + res.saves)
		r.Failed += int64(res.saveErrs)
		if s.resume {
			r.Attempted++ // the resume
		}
		if len(runs) == 0 {
			want = wantDigest(e, res.rep)
		} else {
			r.sameDigest(fmt.Sprintf("repeat-%d", len(runs)+1), want, digest(res.rep))
			res.rep = nil
		}
		runs = append(runs, res)
		if err := probe(probesPerRep); err != nil {
			return err
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.Meta.Reps = len(runs)
	if err := probe(minProbes - len(setups)); err != nil {
		return err
	}

	first := runs[0]
	r.Counters = reportCounters(s.target, first.rep)
	r.Counters.CheckpointBytes = first.ckptBytes
	if err := s.reference(e, dir, want, runs); err != nil {
		return err
	}

	// Throughput is the window's total work over its total run time, a
	// time-weighted average: on a shared machine whose speed drifts within
	// a run, it is steadier than any single repetition's rate.
	var runTime time.Duration
	var rates []float64
	for _, res := range runs {
		runTime += res.run
		rates = append(rates, float64(n)/res.run.Seconds())
	}
	r.set("setup_s", median(durations(setups, sec)), "s")
	r.set("iters_per_s", float64(n*len(runs))/runTime.Seconds(), "iter/s")
	r.info("rep_rate_spread", repSpread(rates), "ratio")
	r.set("peak_rss_mb", peak, "MB")
	r.info("setup_samples", float64(len(setups)), "count")
	s.progressInfo(r, runs)
	return nil
}

// reference runs the workload's correctness reference, untimed, and
// compares digests: Workers=1 for a parallel campaign, an uninterrupted run
// for a resumed one, and Workers=2 for any other.
func (s campaignSpec) reference(e *env, dir, want string, runs []*sessionResult) error {
	r := e.rep
	switch {
	case s.workers > 1:
		ref, err := s.runOnce(e, 1, dir, false)
		if err != nil {
			return err
		}
		r.Attempted += int64(len(ref.rep.Iters))
		r.sameDigest("workers-2-vs-1", want, digest(ref.rep))
		if r.Meta.NumCPU < 2 {
			r.note("scaling unmeasured: nproc=%d < 2, no Workers=2 speedup is reported", r.Meta.NumCPU)
			return nil
		}
		var runTimes []float64
		for _, res := range runs {
			runTimes = append(runTimes, res.run.Seconds())
		}
		r.info("speedup_w2_vs_w1", ref.run.Seconds()/median(runTimes), "x")
	case s.resume:
		c, err := dejavuzz.New(s.target, s.options(e, s.workers)...)
		if err != nil {
			return err
		}
		ref := c.Run()
		r.Attempted += int64(len(ref.Iters))
		r.sameDigest("resumed-vs-uninterrupted", want, digest(ref))
	default:
		ref, err := s.runOnce(e, 2, dir, false)
		if err != nil {
			return err
		}
		r.Attempted += int64(len(ref.rep.Iters))
		r.sameDigest("workers-1-vs-2", want, digest(ref.rep))
	}
	return nil
}

// progressInfo reports the time-to-coverage and time-to-bugs probes. They
// are informational: the iteration at which a fixed target is reached moves
// with the workload seed by design, so they are not gated.
func (s campaignSpec) progressInfo(r *report, runs []*sessionResult) {
	var cov, bugs []float64
	for _, res := range runs {
		if res.itersToCov >= 0 {
			cov = append(cov, sec(res.timeToCov))
		}
		if res.itersToBugs >= 0 {
			bugs = append(bugs, sec(res.timeToBugs))
		}
	}
	first := runs[0]
	if s.covN > 0 {
		if len(cov) == len(runs) {
			r.info("time_to_coverage_s", median(cov), "s")
			r.info("iters_to_coverage", float64(first.itersToCov), "iter")
		} else {
			r.note("coverage target %d not reached", s.covN)
		}
	}
	if s.bugsK > 0 {
		if len(bugs) == len(runs) {
			r.info("time_to_bugs_s", median(bugs), "s")
			r.info("iters_to_bugs", float64(first.itersToBugs), "iter")
		} else {
			r.note("distinct-bug target %d not reached", s.bugsK)
		}
	}
}
