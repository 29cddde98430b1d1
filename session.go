package dejavuzz

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dejavuzz/internal/core"
)

// ErrInterrupted is returned by Session.Wait when the session stopped at a
// merge barrier (context cancellation or Pause) instead of completing. The
// session's Checkpoint resumes it.
var ErrInterrupted = errors.New("dejavuzz: session interrupted; resume from its checkpoint")

// Campaign is a configured fuzzing campaign over one registered target.
// It is a factory: Run and Start may be called any number of times, each
// executing the campaign from scratch (use Resume to continue a checkpoint).
type Campaign struct {
	target   core.Target
	opts     core.Options
	ckptPath string
}

// New builds a campaign for a registered target name ("boom", "xiangshan",
// "isasim", or anything added with RegisterTarget) with functional options
// applied over the target's defaults: Options{Target: target}.Campaign,
// except that the name must be registered (an empty one is refused).
func New(target string, opts ...Option) (*Campaign, error) {
	if _, err := core.LookupTarget(target); err != nil {
		return nil, err
	}
	return Options{Target: target}.Campaign(opts...)
}

// Target returns the campaign's design under test.
func (c *Campaign) Target() Target { return c.target }

// Run executes the campaign to completion and returns its report: it runs a
// session (Start), drains its events and waits for it. Reports are
// deterministic in the campaign's options: Workers only changes wall time.
// With WithCheckpointFile, barriers autosave as they do under Start.
func (c *Campaign) Run() *Report {
	// The context is never cancelled, so the session always completes and
	// Wait cannot return an error.
	s, err := c.Start(context.Background())
	if err != nil {
		panic(err) // unreachable: launch errors only on resume
	}
	for range s.Events() {
	}
	rep, _ := s.Wait()
	return rep
}

// Start launches the campaign as a streaming session. Events arrive on
// Session.Events at the engine's deterministic merge barriers; cancelling
// ctx stops the campaign at the next barrier and the session ends with a
// resumable checkpoint instead of a report.
func (c *Campaign) Start(ctx context.Context) (*Session, error) {
	return c.launch(ctx, nil)
}

// Resume continues a checkpointed session. The checkpoint must come from a
// campaign with determinism-equivalent options (Workers may differ); the
// resumed campaign's final report is identical — modulo wall-clock fields —
// to an uninterrupted run.
func (c *Campaign) Resume(ctx context.Context, ck *Checkpoint) (*Session, error) {
	if ck == nil || ck.state == nil {
		return nil, errors.New("dejavuzz: Resume: nil checkpoint")
	}
	return c.launch(ctx, ck.state)
}

// EventKind classifies session events.
type EventKind int

const (
	// EventEpoch is emitted at every merge barrier with campaign progress.
	EventEpoch EventKind = iota
	// EventFinding is emitted (before the barrier's EventEpoch) once per
	// finding merged at the barrier, in iteration order.
	EventFinding
	// EventCheckpointSaved is emitted after a barrier checkpoint autosave
	// (sessions started with WithCheckpointFile); Err carries a save failure.
	EventCheckpointSaved
	// EventDone is the final event: Report on completion, Checkpoint (and
	// ErrInterrupted in Err) on interruption. The channel closes after it.
	EventDone
)

func (k EventKind) String() string {
	switch k {
	case EventEpoch:
		return "epoch"
	case EventFinding:
		return "finding"
	case EventCheckpointSaved:
		return "checkpoint-saved"
	case EventDone:
		return "done"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one session event. Done/Total/Coverage carry campaign progress
// on every kind; the remaining fields are kind-specific.
type Event struct {
	Kind EventKind

	// Done/Total are completed and total campaign iterations; Coverage is
	// the merged coverage point count.
	Done, Total, Coverage int

	// Scenarios carries the cumulative per-family statistics — picks,
	// coverage yield, findings, adaptive sampling weight — as of the
	// barrier that emitted the event (EventEpoch only).
	Scenarios []ScenarioStat

	// Harvest carries the barrier's corpus-worthy seeds — coverage-feedback
	// keepers and finding producers, with their evidence — in iteration
	// order (EventEpoch only). dvz-server's corpus store persists them
	// across campaigns, keeping each seed's best observation, so a resumed
	// campaign's re-emitted barriers change nothing there; other consumers
	// may ignore the field.
	Harvest []HarvestedSeed

	// Finding is the merged finding (EventFinding).
	Finding *Finding
	// Path is the checkpoint file written (EventCheckpointSaved).
	Path string
	// Report is the final report (EventDone, completed sessions).
	Report *Report
	// Checkpoint resumes the campaign (EventDone, interrupted sessions).
	Checkpoint *Checkpoint
	// Err carries ErrInterrupted on interrupted EventDone and autosave
	// failures on EventCheckpointSaved.
	Err error
}

// maxEventBuffer bounds a session's event-channel buffer. The worst-case
// event count is one per iteration (findings) plus two per barrier, so
// campaigns up to ~32k iterations get the full never-blocks guarantee;
// beyond that the engine applies backpressure at barriers until the
// consumer drains (see Events and Wait).
const maxEventBuffer = 1 << 15

// maxAutosaves bounds how many barrier autosaves a session performs over
// its lifetime (WithCheckpointFile). Each save writes the whole checkpoint,
// so the bound keeps a campaign's total checkpoint write I/O linear in its
// length; encoding already is, whatever the cadence (each record is
// encoded once).
const maxAutosaves = 64

// Session is one streaming execution of a campaign.
type Session struct {
	events chan Event
	done   chan struct{}
	cancel context.CancelFunc

	mu     sync.Mutex
	report *Report
	ckpt   *Checkpoint
	err    error
}

// emit delivers one event from the engine goroutine. The buffer normally
// absorbs it immediately; when full (only possible above maxEventBuffer
// pending events), the send blocks until the consumer drains — unless the
// session is cancelled, in which case the event is dropped rather than
// wedging the stopping engine (the channel still closes, so consumers
// never hang).
func (s *Session) emit(ctx context.Context, ev Event) {
	select {
	case s.events <- ev:
		return
	default:
	}
	select {
	case s.events <- ev:
	case <-ctx.Done():
	}
}

// launch starts the engine goroutine, fresh or from a snapshot.
func (c *Campaign) launch(ctx context.Context, state *core.EngineState) (*Session, error) {
	opts := c.opts
	norm := opts.Normalized()
	remaining := norm.Iterations
	if state != nil {
		remaining = norm.Iterations - state.NextIter
		if remaining < 0 {
			remaining = 0
		}
	}
	epochs := (remaining + norm.MergeEvery - 1) / norm.MergeEvery

	// The channel buffer fits every event the engine can emit (per barrier:
	// its findings, one epoch, at most one checkpoint-saved; plus the final
	// done), capped so session memory stays bounded for very long
	// campaigns. Under the cap the engine never blocks on a slow (or
	// absent) consumer; above it, barrier emission applies backpressure —
	// see Session.emit for the cancellation escape hatch.
	buffer := remaining + 2*epochs + 4
	if buffer > maxEventBuffer {
		buffer = maxEventBuffer
	}
	s := &Session{
		events: make(chan Event, buffer),
		done:   make(chan struct{}),
	}
	ctx, s.cancel = context.WithCancel(ctx)

	// Autosave cadence: a save encodes only the records no earlier save
	// encoded, but it writes the whole campaign history, so saving every
	// barrier would cost O(n²) write I/O over a long campaign. Throttle to
	// ~maxAutosaves total (deterministic in the options; the interrupt path
	// below covers the gap since the last save), every barrier for short
	// campaigns.
	totalEpochs := (norm.Iterations + norm.MergeEvery - 1) / norm.MergeEvery
	saveEvery := 1
	if totalEpochs > maxAutosaves {
		saveEvery = (totalEpochs + maxAutosaves - 1) / maxAutosaves
	}

	// lastSaved tracks the iteration count the latest successful barrier
	// autosave covered. Barrier hooks and the completion path below both
	// run on the engine goroutine, so no locking is needed.
	lastSaved := -1
	opts.OnBarrier = func(b *core.Barrier) {
		for i := range b.Findings {
			f := b.Findings[i]
			s.emit(ctx, Event{Kind: EventFinding, Finding: &f,
				Done: b.Done, Total: b.Total, Coverage: b.Coverage})
		}
		s.emit(ctx, Event{Kind: EventEpoch, Done: b.Done, Total: b.Total, Coverage: b.Coverage,
			Scenarios: b.Scenarios, Harvest: b.Harvest})
		if c.ckptPath != "" && (b.Epoch+1)%saveEvery == 0 {
			ck := &Checkpoint{state: b.Snapshot()}
			err := ck.Save(c.ckptPath)
			if err == nil {
				lastSaved = b.Done
			}
			s.emit(ctx, Event{Kind: EventCheckpointSaved, Path: c.ckptPath, Err: err,
				Done: b.Done, Total: b.Total, Coverage: b.Coverage})
		}
	}

	var f *core.Fuzzer
	if state == nil {
		f = core.NewFuzzer(opts)
	} else {
		var err error
		f, err = core.NewFuzzerFromState(state, opts)
		if err != nil {
			s.cancel()
			return nil, err
		}
	}

	total := norm.Iterations
	go func() {
		defer s.cancel()
		rep, st := f.RunContext(ctx)
		s.mu.Lock()
		if rep != nil {
			s.report = rep
			s.mu.Unlock()
			s.emit(ctx, Event{Kind: EventDone, Report: rep,
				Done: total, Total: total, Coverage: rep.Coverage})
		} else {
			ck := &Checkpoint{state: st}
			s.ckpt = ck
			s.err = ErrInterrupted
			s.mu.Unlock()
			done, _ := ck.Progress()
			if c.ckptPath != "" && lastSaved != done {
				// Final autosave, needed only when cancellation landed
				// before a barrier autosave covered this state (e.g. before
				// the first barrier, or after a failed save). Surfaced like
				// barrier autosaves, so a failure (the checkpoint then
				// exists only in-process via the Done event) is never
				// silent.
				err := ck.Save(c.ckptPath)
				s.emit(ctx, Event{Kind: EventCheckpointSaved, Path: c.ckptPath, Err: err,
					Done: done, Total: total, Coverage: len(st.Coverage)})
			}
			s.emit(ctx, Event{Kind: EventDone, Checkpoint: ck, Err: ErrInterrupted,
				Done: done, Total: total, Coverage: len(st.Coverage)})
		}
		close(s.events)
		close(s.done)
	}()
	return s, nil
}

// Events returns the session's event stream, its only one: a caller that
// wants several observers fans it out itself (dvz-server relays it to each
// HTTP client). Events are emitted at the engine's deterministic merge
// barriers — the same options always produce the same stream — and the
// channel closes after EventDone. Consumers may read lazily or not at all:
// the engine never blocks on the channel while the campaign's event count
// fits the session buffer (see maxEventBuffer); for longer campaigns, drain
// the stream (or cancel the context).
func (s *Session) Events() <-chan Event { return s.events }

// Done is closed when the session ends (completed or interrupted).
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session ends. It returns the report on completion,
// or a nil report and ErrInterrupted when the session stopped at a barrier
// (retrieve the resume state with Checkpoint). For campaigns whose event
// stream exceeds the session buffer (see maxEventBuffer), drain Events
// before — or concurrently with — Wait, or the engine's backpressure and
// Wait deadlock against each other.
func (s *Session) Wait() (*Report, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report, s.err
}

// Pause stops the session at the next merge barrier and returns its
// resumable checkpoint. A nil checkpoint means the campaign completed before
// the barrier; its report is available from Wait.
func (s *Session) Pause() *Checkpoint {
	s.cancel()
	<-s.done
	return s.Checkpoint()
}

// Checkpoint returns the session's resume state: non-nil only after an
// interrupted session ends.
func (s *Session) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckpt
}
