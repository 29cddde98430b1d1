package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

// span is one timed call: a layer name, its interval in nanoseconds since
// the trace origin, and the span that caused it (0 for a root). Req is the
// request the span belongs to: an iteration ("it/17"), a barrier ("b/3")
// or a campaign ("c1").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog records spans in memory; one log is used by one goroutine.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// begin opens a span and returns its ID; end closes it.
func (l *spanLog) begin(name, req string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req, Start: l.now()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = l.now() }

// add records an already-timed span and returns its ID.
func (l *spanLog) add(name, req string, parent int, start, end int64) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return len(l.spans)
}

// selfTimes sums each layer's self time: its spans' durations minus the
// part their child spans cover.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// writeSpans writes span logs as JSON lines, renumbering IDs so they are
// unique across logs.
func writeSpans(path string, logs ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, spans := range logs {
		for _, s := range spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- the delegating target --------------------------------------------------

// iterRec is one RunIteration call recorded behind the delegating target
// (campaignTrace.shards keys it by shard).
type iterRec struct {
	iter       int
	seed       gen.Seed
	start, end int64
	// sink holds the intervals spent in the coverage sink during the call.
	sink [][2]int64
	out  core.Outcome
}

// barrierRec is one merge barrier seen by the traced campaign's hook.
type barrierRec struct {
	epoch           int
	hookIn, hookOut int64
	// snapshot/encode/write are the autosave's intervals (zero when the
	// barrier did not save); bytes is the encoded checkpoint size.
	snapshot, encode, write [2]int64
	bytes                   int
	saveErr                 error
}

// campaignTrace is everything one traced campaign recorded.
type campaignTrace struct {
	origin   time.Time
	shards   [][]iterRec // per shard, appended only by the shard's worker
	barriers []barrierRec
	start    int64 // fuzzer construction returned
	end      int64 // the campaign's report returned
	resume   [2]int64
}

func (t *campaignTrace) now() int64 { return int64(time.Since(t.origin)) }

// iters returns every recorded iteration in iteration order.
func (t *campaignTrace) iters() []iterRec {
	var out []iterRec
	for _, recs := range t.shards {
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].iter < out[j].iter })
	return out
}

// traceTarget wraps a registered target: the engine drives the real
// pipeline through it, and every RunIteration is timed and recorded.
type traceTarget struct {
	inner core.Target
	// cur is the trace the next campaign records into. It is set before the
	// fuzzer is built and read by shard workers the engine starts later.
	cur *campaignTrace
}

func (t *traceTarget) Name() string         { return "trace-" + t.inner.Name() }
func (t *traceTarget) Description() string  { return "benchmark tracing delegate for " + t.inner.Name() }
func (t *traceTarget) Kind() uarch.CoreKind { return t.inner.Kind() }

func (t *traceTarget) NewPipeline(f *core.Fuzzer) core.Pipeline {
	return &tracePipeline{inner: t.inner.NewPipeline(f), tr: t.cur}
}

type tracePipeline struct {
	inner core.Pipeline
	tr    *campaignTrace
	next  int // shard index: the engine builds shards in order
}

func (p *tracePipeline) NewShard() core.ShardPipeline {
	id := p.next
	p.next++
	for len(p.tr.shards) <= id {
		p.tr.shards = append(p.tr.shards, nil)
	}
	return &traceShard{inner: p.inner.NewShard(), tr: p.tr, id: id}
}

type traceShard struct {
	inner core.ShardPipeline
	tr    *campaignTrace
	id    int
	sink  timedSink
}

func (s *traceShard) RunIteration(iter int, seed gen.Seed, sink core.CovSink) core.Outcome {
	s.sink = timedSink{inner: sink, tr: s.tr, spans: s.sink.spans[:0]}
	start := s.tr.now()
	out := s.inner.RunIteration(iter, seed, &s.sink)
	end := s.tr.now()
	s.tr.shards[s.id] = append(s.tr.shards[s.id], iterRec{
		iter: iter, seed: seed, start: start, end: end,
		sink: append([][2]int64(nil), s.sink.spans...), out: out,
	})
	return out
}

// timedSink times the coverage-delta calls a pipeline makes.
type timedSink struct {
	inner core.CovSink
	tr    *campaignTrace
	spans [][2]int64
}

func (t *timedSink) AddFromLog(log []uarch.TaintSample) int {
	start := t.tr.now()
	n := t.inner.AddFromLog(log)
	t.spans = append(t.spans, [2]int64{start, t.tr.now()})
	return n
}

var (
	delegateMu sync.Mutex
	delegates  = map[string]*traceTarget{}
)

// delegate returns the tracing delegate for a target, registering it on
// first use.
func delegate(target string) (*traceTarget, error) {
	delegateMu.Lock()
	defer delegateMu.Unlock()
	if t, ok := delegates[target]; ok {
		return t, nil
	}
	inner, err := core.LookupTarget(target)
	if err != nil {
		return nil, err
	}
	t := &traceTarget{inner: inner}
	core.RegisterTarget(t)
	delegates[target] = t
	return t, nil
}

// --- the traced campaign ----------------------------------------------------

// maxAutosaves mirrors the session's autosave throttle, so the traced
// campaign's barrier hook saves at exactly the cadence a session with
// WithCheckpointFile does.
const maxAutosaves = 64

func autosaveEvery(iters, mergeEvery int) int {
	total := (iters + mergeEvery - 1) / mergeEvery
	if total > maxAutosaves {
		return (total + maxAutosaves - 1) / maxAutosaves
	}
	return 1
}

// tracedRun executes the workload's campaign behind the delegating target.
// A core OnBarrier hook times snapshot, encode and write at the session's
// autosave cadence; a resumable workload pauses at the first barrier past
// its midpoint and resumes from the saved file.
func (s campaignSpec) tracedRun(e *env, dir string) (*core.Report, *campaignTrace, error) {
	t, err := delegate(s.target)
	if err != nil {
		return nil, nil, err
	}
	tr := &campaignTrace{origin: time.Now()}
	t.cur = tr
	n := s.size(e)
	opts := core.DefaultOptionsFor(t)
	opts.Seed, opts.Iterations, opts.Workers = e.seed, n, s.workers
	path := filepath.Join(dir, "traced.ckpt.json")
	saveEvery := autosaveEvery(n, opts.Normalized().MergeEvery)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	paused := false
	lastSaved := -1
	opts.OnBarrier = func(b *core.Barrier) {
		rec := barrierRec{epoch: b.Epoch, hookIn: tr.now()}
		if s.resume && (b.Epoch+1)%saveEvery == 0 {
			rec.snapshot[0] = tr.now()
			st := b.Snapshot()
			rec.snapshot[1] = tr.now()
			data, err := json.Marshal(&checkpointFile{st})
			rec.encode = [2]int64{rec.snapshot[1], tr.now()}
			if err == nil {
				rec.write[0] = tr.now()
				err = atomicfile.Write(path, data)
				rec.write[1] = tr.now()
			}
			rec.bytes, rec.saveErr = len(data), err
			if err == nil {
				lastSaved = b.Done
			}
		}
		if s.resume && !paused && b.Done > n/2 {
			paused = true
			cancel()
		}
		rec.hookOut = tr.now()
		tr.barriers = append(tr.barriers, rec)
	}

	f := core.NewFuzzer(opts)
	tr.start = tr.now()
	rep, st := f.RunContext(ctx)
	if st != nil {
		// The session's interrupt path: save unless the pause barrier's
		// autosave already covered this state.
		if lastSaved != st.NextIter {
			data, err := json.Marshal(&checkpointFile{st})
			if err == nil {
				err = atomicfile.Write(path, data)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("traced interrupt save: %w", err)
			}
		}
		tr.resume[0] = tr.now()
		st, err := loadEngineState(path)
		if err != nil {
			return nil, nil, err
		}
		f2, err := core.NewFuzzerFromState(st, opts)
		if err != nil {
			return nil, nil, err
		}
		tr.resume[1] = tr.now()
		rep, _ = f2.RunContext(context.Background())
	}
	tr.end = tr.now()
	return rep, tr, nil
}

// checkpointFile mirrors dejavuzz.Checkpoint's JSON methods, so the
// traced hook encodes and decodes a checkpoint along the same path
// Checkpoint.Save and LoadCheckpoint take.
type checkpointFile struct{ st *core.EngineState }

func (c *checkpointFile) MarshalJSON() ([]byte, error) { return json.Marshal(c.st) }

func (c *checkpointFile) UnmarshalJSON(data []byte) error {
	st := &core.EngineState{}
	if err := json.Unmarshal(data, st); err != nil {
		return err
	}
	c.st = st
	return nil
}

// loadEngineState is dejavuzz.LoadCheckpoint at the engine level: read,
// decode and migrate a checkpoint file.
func loadEngineState(path string) (*core.EngineState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck := &checkpointFile{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return ck.st, ck.st.Migrate()
}

// campaignSpans materialises a traced campaign as spans: one root per
// iteration with its coverage-sink children, and per barrier the engine's
// barrier work plus the hook's snapshot, encode and write.
func (t *campaignTrace) campaignSpans(mergeEvery int) []span {
	l := &spanLog{}
	recs := t.iters()
	lastEnd := map[int]int64{}
	for _, r := range recs {
		req := fmt.Sprintf("it/%d", r.iter)
		id := l.add("core.iteration", req, 0, r.start, r.end)
		for _, sk := range r.sink {
			l.add("core.coverage_delta", req, id, sk[0], sk[1])
		}
		if ep := r.iter / mergeEvery; r.end > lastEnd[ep] {
			lastEnd[ep] = r.end
		}
	}
	for _, b := range t.barriers {
		req := fmt.Sprintf("b/%d", b.epoch)
		l.add("core.barrier", req, 0, lastEnd[b.epoch], b.hookIn)
		hook := l.add("core.barrier_hook", req, 0, b.hookIn, b.hookOut)
		if b.snapshot[1] != 0 {
			l.add("core.snapshot", req, hook, b.snapshot[0], b.snapshot[1])
			l.add("core.encode", req, hook, b.encode[0], b.encode[1])
		}
		if b.write[1] != 0 {
			l.add("atomicfile.write", req, hook, b.write[0], b.write[1])
		}
	}
	if t.resume[1] != 0 {
		l.add("core.resume", "resume", 0, t.resume[0], t.resume[1])
	}
	return l.spans
}
