// Package server is the multi-tenant campaign service: it schedules any
// number of concurrently requested fuzzing campaigns over one bounded
// shared worker budget, streams their session events to any number of
// observers, triages their findings into the deduplicated bug store
// (internal/triage), and persists everything — campaign registry, per-
// campaign barrier checkpoints, final reports, triaged findings — under one
// state directory so a SIGTERM'd server restarts exactly where it stopped:
// every active campaign is checkpointed at its next merge barrier on
// shutdown and automatically resumed (byte-identically, modulo wall-clock
// fields) on the next start.
//
// The package exposes the service both as a Go API (Open/Create/Pause/...)
// and as an HTTP API (Handler); cmd/dvz-server is the thin binary around
// them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dejavuzz"
	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/corpus"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/triage"
)

// State is a campaign's lifecycle state.
type State string

const (
	// StateQueued: waiting for worker-budget admission (fresh, resumed
	// after a restart, or user-resumed after a pause).
	StateQueued State = "queued"
	// StateRunning: session live, consuming workers.
	StateRunning State = "running"
	// StatePaused: user-paused at a merge barrier; a checkpoint on disk
	// resumes it.
	StatePaused State = "paused"
	// StateDone: completed; the report is on disk.
	StateDone State = "done"
	// StateCancelled: terminally stopped by the user.
	StateCancelled State = "cancelled"
	// StateFailed: could not be built or launched (see Record.Error).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Record is the persisted, client-visible snapshot of one campaign.
type Record struct {
	ID      string           `json:"id"`
	Name    string           `json:"name,omitempty"`
	Target  string           `json:"target"`
	Options dejavuzz.Options `json:"options"`
	State   State            `json:"state"`
	// Stopping is the in-flight stop intent ("pause", "cancel",
	// "shutdown") between the request and the next merge barrier.
	Stopping string    `json:"stopping,omitempty"`
	Created  time.Time `json:"created"`
	// Done/Total are completed and total campaign iterations; Coverage is
	// the merged coverage point count — all as of the latest merge barrier.
	Done     int `json:"done"`
	Total    int `json:"total"`
	Coverage int `json:"coverage"`
	// Findings counts raw (pre-triage) findings this campaign reported.
	Findings int    `json:"findings"`
	Error    string `json:"error,omitempty"`
	// Warm is the warm-start set resolved from the corpus store when the
	// campaign first launched with Options.WarmStart. It is pinned here so
	// restarts and resumes replay the exact same set even after the corpus
	// has grown — resolving anew would change the campaign's stimulus
	// streams and fail the checkpoint's option-mismatch check.
	Warm *corpus.WarmSet `json:"warm,omitempty"`
}

// Stop intents (Record.Stopping).
const (
	stopPause    = "pause"
	stopCancel   = "cancel"
	stopShutdown = "shutdown"
)

// Service errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrNotFound: no campaign with that ID.
	ErrNotFound = errors.New("server: campaign not found")
	// ErrConflict: the campaign's state does not admit the transition.
	ErrConflict = errors.New("server: invalid state for operation")
	// ErrShuttingDown: the server no longer accepts work.
	ErrShuttingDown = errors.New("server: shutting down")
)

// registryVersion guards campaigns.json against format drift.
const registryVersion = 1

// registryFile is the on-disk campaign registry. It stores no next ID (an
// older file's "next_id" is ignored): Create hands IDs out in order and
// nothing deletes a record, so the next one follows the highest listed.
type registryFile struct {
	Version   int      `json:"version"`
	Campaigns []Record `json:"campaigns"`
}

// campaign is the server-side state of one campaign.
type campaign struct {
	rec Record
	// cancel stops the running session; it is nil while the campaign is
	// parked, queued or still launching.
	cancel  context.CancelFunc
	workers int // budget slots held while running
	// pending holds the findings of the barrier being absorbed until its
	// epoch event; only the run goroutine touches it.
	pending []dejavuzz.Finding
	// streams are the open event streams relay feeds, and dropped counts
	// the events they missed over the campaign's lifetime.
	streams []chan dejavuzz.Event
	dropped int64

	// runStarted/startDone anchor the current run's throughput gauge:
	// iterations completed since the session (re)started over the wall
	// clock since then (exported as dvz_campaign_iters_per_sec).
	runStarted time.Time
	startDone  int
}

// Config configures Open.
type Config struct {
	// StateDir holds campaigns.json, findings.json, and per-campaign
	// checkpoint/report files. It is created if missing.
	StateDir string
	// Workers is the shared worker budget campaigns are admitted against
	// (default 1). A campaign consumes min(its Workers option, budget)
	// slots while running; campaigns that do not fit wait in FIFO order.
	Workers int
	// Log receives service logs; nil discards them.
	Log *log.Logger
}

// Server is the campaign service. All methods are safe for concurrent use.
type Server struct {
	stateDir string
	budget   int
	log      *log.Logger
	store    *triage.Store
	corpus   *corpus.Store
	started  time.Time
	// persistErrors counts failed writes of durable state: findings.json,
	// the corpus, the registry, checkpoint autosaves and reports. Any count
	// above zero marks the server degraded on /healthz.
	persistErrors atomic.Int64

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // creation order, for stable listings
	nextID    int      // the highest c<N> listed; Create hands out the next
	queue     []string // FIFO admission queue of campaign IDs
	inUse     int      // worker slots held by running campaigns
	dropped   int64    // events missed by event streams, all campaigns
	closed    bool
	wg        sync.WaitGroup // live campaign goroutines
}

// Open starts the service over a state directory, creating it if needed,
// and automatically re-queues every campaign that was queued or running
// when the previous server stopped — each resumes from its latest barrier
// checkpoint. Paused campaigns stay paused; terminal ones are listed as-is.
func Open(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	budget := cfg.Workers
	if budget <= 0 {
		budget = 1
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	store, err := triage.Open(filepath.Join(cfg.StateDir, "findings.json"))
	if err != nil {
		return nil, err
	}
	cst, err := corpus.Open(filepath.Join(cfg.StateDir, "corpus"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		stateDir:  cfg.StateDir,
		budget:    budget,
		log:       logger,
		store:     store,
		corpus:    cst,
		started:   time.Now(),
		campaigns: make(map[string]*campaign),
	}
	if err := s.loadRegistry(); err != nil {
		cst.Close()
		return nil, err
	}
	s.mu.Lock()
	s.schedule()
	s.mu.Unlock()
	return s, nil
}

// loadRegistry restores campaigns.json and re-queues interrupted work.
func (s *Server) loadRegistry() error {
	path := s.registryPath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: read registry: %w", err)
	}
	var reg registryFile
	if err := json.Unmarshal(data, &reg); err != nil {
		return fmt.Errorf("server: parse registry %s: %w", path, err)
	}
	if reg.Version != registryVersion {
		return fmt.Errorf("server: registry %s has version %d, want %d", path, reg.Version, registryVersion)
	}
	for i, rec := range reg.Campaigns {
		n, err := s.checkRecord(rec)
		if err != nil {
			return fmt.Errorf("server: registry %s: campaign %d (id %q): %w", path, i, rec.ID, err)
		}
		s.nextID = max(s.nextID, n)
		// Target and Total restate the options; recomputing them keeps a
		// record from keying triage and the corpus apart from its target.
		rec.Target, rec.Total = rec.Options.EffectiveTarget(), rec.Options.EffectiveIterations()
		rec.Stopping = ""
		if rec.State == StateRunning || rec.State == StateQueued {
			// Interrupted by the previous shutdown (or crash): resume from
			// the latest barrier checkpoint, fresh if none was taken.
			rec.State = StateQueued
			s.queue = append(s.queue, rec.ID)
			s.log.Printf("campaign %s: re-queued for resume (%d/%d iterations done)", rec.ID, rec.Done, rec.Total)
		}
		s.campaigns[rec.ID] = &campaign{rec: rec}
		s.order = append(s.order, rec.ID)
	}
	return nil
}

// checkRecord refuses a loaded record the server could not have written:
// an ID other than the c<N> that Create hands out (an empty one included),
// an ID already loaded, or an unknown state. It returns the ID's N.
func (s *Server) checkRecord(rec Record) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "c"))
	if err != nil || rec.ID != fmt.Sprintf("c%d", n) || n < 1 {
		return 0, errors.New("id is not of the form c<N>")
	}
	if _, dup := s.campaigns[rec.ID]; dup {
		return 0, errors.New("id is listed twice")
	}
	switch rec.State {
	case StateQueued, StateRunning, StatePaused, StateDone, StateCancelled, StateFailed:
		return n, nil
	}
	return 0, fmt.Errorf("state %q is not a campaign state", rec.State)
}

func (s *Server) registryPath() string { return filepath.Join(s.stateDir, "campaigns.json") }
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.stateDir, id+".ckpt.json")
}
func (s *Server) reportPath(id string) string {
	return filepath.Join(s.stateDir, id+".report.json")
}

// persistLocked atomically rewrites campaigns.json and counts a failure
// toward persistErrors; callers log or return the error. Callers hold s.mu.
func (s *Server) persistLocked() error {
	reg := registryFile{Version: registryVersion}
	for _, id := range s.order {
		reg.Campaigns = append(reg.Campaigns, s.campaigns[id].rec)
	}
	data, err := json.Marshal(&reg)
	if err != nil {
		return fmt.Errorf("server: encode registry: %w", err)
	}
	if err := atomicfile.Write(s.registryPath(), data); err != nil {
		s.persistErrors.Add(1)
		return fmt.Errorf("server: write registry: %w", err)
	}
	return nil
}

// persistFailed counts and logs a failed write of a store, checkpoint or
// report a campaign produced.
func (s *Server) persistFailed(id, what string, err error) {
	s.persistErrors.Add(1)
	s.log.Printf("campaign %s: %s: %v", id, what, err)
}

// Create registers a new campaign and queues it for admission. The options
// are validated eagerly (unknown target or variant fails here, not
// asynchronously), so a returned Record is guaranteed runnable.
func (s *Server) Create(name string, o dejavuzz.Options) (Record, error) {
	if _, err := o.Campaign(); err != nil {
		return Record{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Record{}, ErrShuttingDown
	}
	s.nextID++
	id := fmt.Sprintf("c%d", s.nextID)
	rec := Record{
		ID:      id,
		Name:    name,
		Target:  o.EffectiveTarget(),
		Options: o,
		State:   StateQueued,
		Created: time.Now().UTC(),
		Total:   o.EffectiveIterations(),
	}
	cs := &campaign{rec: rec}
	s.campaigns[id] = cs
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	if err := s.persistLocked(); err != nil {
		// Roll back entirely: returning an error alongside a live campaign
		// would make client retries spawn duplicates.
		delete(s.campaigns, id)
		s.order = s.order[:len(s.order)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.nextID--
		return Record{}, err
	}
	s.schedule()
	s.log.Printf("campaign %s: created (target=%s, %d iterations)", id, rec.Target, rec.Total)
	return cs.rec, nil
}

// workersFor is the budget cost of running a campaign: its Workers option
// clamped to [1, budget], so one oversized request degrades instead of
// starving the queue forever.
func (s *Server) workersFor(o dejavuzz.Options) int {
	w := o.Workers
	if w < 1 {
		w = 1
	}
	if w > s.budget {
		w = s.budget
	}
	return w
}

// schedule admits queued campaigns in FIFO order while budget remains.
// Callers hold s.mu.
func (s *Server) schedule() {
	if s.closed {
		return
	}
	for len(s.queue) > 0 {
		cs := s.campaigns[s.queue[0]]
		w := s.workersFor(cs.rec.Options)
		if s.inUse+w > s.budget {
			return
		}
		s.queue = s.queue[1:]
		s.inUse += w
		cs.workers = w
		cs.rec.State = StateRunning
		s.wg.Add(1)
		go s.run(cs)
	}
}

// run executes one campaign from launch to its next terminal or parked
// state: it builds the session (resuming from the on-disk checkpoint when
// one exists), relays each session event to the campaign's event streams
// and absorbs it into the record and the stores, and on exit releases the
// worker slots and persists the outcome.
func (s *Server) run(cs *campaign) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	id := cs.rec.ID
	ckptPath := s.checkpointPath(id)
	extra := []dejavuzz.Option{dejavuzz.WithCheckpointFile(ckptPath)}
	if cs.rec.Options.WarmStart {
		warm, err := s.warmFor(cs)
		if err != nil {
			s.finish(cs, nil, err)
			return
		}
		extra = append(extra, dejavuzz.WithWarmStart(dejavuzz.WarmStart{
			Snapshot: warm.Snapshot,
			Seeds:    warm.Seeds,
			Prior:    warm.Prior,
		}))
	}
	c, err := cs.rec.Options.Campaign(extra...)
	if err != nil {
		s.finish(cs, nil, err)
		return
	}
	var sess *dejavuzz.Session
	resumedFrom := -1
	if _, statErr := os.Stat(ckptPath); statErr == nil {
		ck, err := dejavuzz.LoadCheckpoint(ckptPath)
		if err == nil {
			resumedFrom, _ = ck.Progress()
			sess, err = c.Resume(ctx, ck)
		}
		if err != nil {
			s.finish(cs, nil, fmt.Errorf("resume from %s: %w", ckptPath, err))
			return
		}
	} else {
		sess, err = c.Start(ctx)
		if err != nil {
			s.finish(cs, nil, err)
			return
		}
	}

	s.mu.Lock()
	cs.cancel = cancel
	cs.runStarted = time.Now()
	cs.startDone = cs.rec.Done
	if resumedFrom >= 0 {
		cs.rec.Done = resumedFrom
		cs.startDone = resumedFrom
		s.log.Printf("campaign %s: resumed from checkpoint at iteration %d", id, resumedFrom)
	} else {
		s.log.Printf("campaign %s: started (workers=%d of budget %d)", id, cs.workers, s.budget)
	}
	if err := s.persistLocked(); err != nil {
		s.log.Printf("campaign %s: persist: %v", id, err)
	}
	stopRequested := cs.rec.Stopping != ""
	s.mu.Unlock()
	if stopRequested {
		// A pause/cancel/shutdown raced launch: honour it now that cancel
		// is wired (the session stops at its first barrier).
		cancel()
	}

	for ev := range sess.Events() {
		s.relay(cs, ev)
		s.absorb(cs, ev)
	}
	// A stopping session may drop a barrier's epoch event after its
	// findings (Session.emit): absorb them all the same.
	if added := s.triagePending(cs); added > 0 {
		s.mu.Lock()
		cs.rec.Findings += added
		s.mu.Unlock()
	}
	rep, _ := sess.Wait()
	s.finish(cs, rep, nil)
}

// streamBuffer is each event stream's buffer. A client more than this many
// events behind misses events rather than holding up the campaign's run
// goroutine, which relays to every stream under the server lock.
const streamBuffer = 256

// relay passes one session event to the campaign's open streams. A stream
// whose buffer is full misses it, and the miss counts for the campaign and
// the server.
func (s *Server) relay(cs *campaign, ev dejavuzz.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range cs.streams {
		select {
		case ch <- ev:
		default:
			cs.dropped++
			s.dropped++
		}
	}
}

// absorb folds one session event into the campaign record and the
// persistent stores. A barrier's findings arrive before its epoch event and
// are held until it, so the triage store takes each barrier in one Add and
// rewrites findings.json once per barrier. A campaign resumed from a
// checkpoint older than the stores — after an unclean restart — re-delivers
// barriers they already absorbed: the triage store skips findings at or
// below the campaign's watermark, and the corpus finds nothing new in a
// harvest it absorbed, so the re-drain cannot double-count.
func (s *Server) absorb(cs *campaign, ev dejavuzz.Event) {
	id := cs.rec.ID
	switch ev.Kind {
	case dejavuzz.EventFinding:
		cs.pending = append(cs.pending, *ev.Finding)
	case dejavuzz.EventEpoch:
		added := s.triagePending(cs)
		if len(ev.Harvest) > 0 {
			if _, err := s.corpus.Harvest(id, cs.rec.Target, fingerprintFor(cs.rec.Options), ev.Harvest); err != nil {
				s.persistFailed(id, "corpus harvest", err)
			}
		}
		// The record's raw-finding count follows what the store absorbed, so
		// a re-drained barrier cannot inflate it either.
		s.mu.Lock()
		cs.rec.Done, cs.rec.Total, cs.rec.Coverage = ev.Done, ev.Total, ev.Coverage
		cs.rec.Findings += added
		if err := s.persistLocked(); err != nil {
			s.log.Printf("campaign %s: persist: %v", id, err)
		}
		s.mu.Unlock()
	case dejavuzz.EventCheckpointSaved:
		if ev.Err != nil {
			s.persistFailed(id, "checkpoint autosave", ev.Err)
		}
	}
}

// triagePending adds the findings held since the last epoch event to the
// triage store in one call and returns how many it absorbed.
func (s *Server) triagePending(cs *campaign) int {
	added, _, err := s.store.Add(cs.rec.ID, cs.rec.Target, cs.rec.Options.EffectiveSeed(), cs.pending...)
	if err != nil {
		s.persistFailed(cs.rec.ID, "triage store", err)
	}
	cs.pending = cs.pending[:0]
	return added
}

// fingerprintFor derives the corpus compatibility fingerprint a campaign's
// options select: seeds only transfer between campaigns whose target,
// training variant and bug configuration match.
func fingerprintFor(o dejavuzz.Options) string {
	variant := gen.VariantDerived
	if o.Variant == dejavuzz.VariantNameRandom {
		variant = gen.VariantRandom
	}
	return corpus.Fingerprint(o.EffectiveTarget(), variant, o.Bugless)
}

// warmFor returns a campaign's warm-start set, resolving it from the corpus
// store on first launch and pinning the resolution in the persisted record.
// Later launches (restart resume, pause/resume) reuse the pinned set: the
// corpus may have grown since, but the campaign's stimulus streams — and
// its checkpoint's corpus_snapshot option — are already committed to the
// original snapshot.
func (s *Server) warmFor(cs *campaign) (*corpus.WarmSet, error) {
	s.mu.Lock()
	warm := cs.rec.Warm
	s.mu.Unlock()
	if warm != nil {
		return warm, nil
	}
	o := cs.rec.Options
	families := o.Scenarios
	if len(families) == 0 {
		families = dejavuzz.Scenarios()
	}
	ws := s.corpus.WarmStart(o.EffectiveTarget(), fingerprintFor(o), families, o.EffectiveSeed(), 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	cs.rec.Warm = &ws
	if err := s.persistLocked(); err != nil {
		// Without the pin on disk a restart would re-resolve against a
		// grown corpus and break resume determinism; fail the launch.
		cs.rec.Warm = nil
		return nil, fmt.Errorf("pin warm-start: %w", err)
	}
	s.log.Printf("campaign %s: warm-start resolved (%s, %d seeds, %d prior families)",
		cs.rec.ID, ws.Snapshot, len(ws.Seeds), len(ws.Prior))
	return &ws, nil
}

// finish parks a campaign after its session (or launch attempt) ends:
// records the outcome, releases worker slots and admits queued work.
func (s *Server) finish(cs *campaign, rep *dejavuzz.Report, launchErr error) {
	id := cs.rec.ID
	var saveErr error
	if rep != nil {
		data, err := json.Marshal(rep)
		if err == nil {
			err = atomicfile.Write(s.reportPath(id), data)
		}
		saveErr = err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inUse -= cs.workers
	cs.workers = 0
	for _, ch := range cs.streams {
		close(ch)
	}
	cs.streams = nil
	cs.cancel = nil
	stop := cs.rec.Stopping
	cs.rec.Stopping = ""
	switch {
	case launchErr != nil:
		cs.rec.State = StateFailed
		cs.rec.Error = launchErr.Error()
		s.log.Printf("campaign %s: failed: %v", id, launchErr)
	case rep != nil:
		cs.rec.State = StateDone
		cs.rec.Done = cs.rec.Total
		cs.rec.Coverage = rep.Coverage
		if saveErr != nil {
			cs.rec.Error = fmt.Sprintf("save report: %v", saveErr)
			s.persistFailed(id, "save report", saveErr)
		}
		// The checkpoint has served its purpose; the report supersedes it.
		os.Remove(s.checkpointPath(id))
		s.log.Printf("campaign %s: done (%d findings, coverage=%d)", id, len(rep.Findings), rep.Coverage)
	case stop == stopPause:
		cs.rec.State = StatePaused
		s.log.Printf("campaign %s: paused at iteration %d", id, cs.rec.Done)
	case stop == stopCancel:
		cs.rec.State = StateCancelled
		s.log.Printf("campaign %s: cancelled at iteration %d", id, cs.rec.Done)
	default:
		// Shutdown interrupt: the barrier checkpoint is on disk and the
		// next Open re-queues the campaign automatically.
		cs.rec.State = StateQueued
		s.log.Printf("campaign %s: checkpointed for restart at iteration %d", id, cs.rec.Done)
	}
	if err := s.persistLocked(); err != nil {
		s.log.Printf("campaign %s: persist: %v", id, err)
	}
	s.schedule()
}

// List returns every campaign record in creation order.
func (s *Server) List() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].rec)
	}
	return out
}

// Get returns one campaign record.
func (s *Server) Get(id string) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return cs.rec, nil
}

// Pause stops a campaign at its next merge barrier (running) or pulls it
// from the admission queue (queued), leaving a resumable checkpoint. The
// transition of a running campaign is asynchronous: the returned record
// shows Stopping="pause" until the barrier lands.
func (s *Server) Pause(id string) (Record, error) {
	s.mu.Lock()
	cs, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch cs.rec.State {
	case StateRunning:
		if cs.rec.Stopping == "" {
			cs.rec.Stopping = stopPause
		}
		cancel := cs.cancel
		rec := cs.rec
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return rec, nil
	case StateQueued:
		s.dequeueLocked(id)
		cs.rec.State = StatePaused
		err := s.persistLocked()
		rec := cs.rec
		s.mu.Unlock()
		return rec, err
	default:
		rec := cs.rec
		s.mu.Unlock()
		return rec, fmt.Errorf("%w: cannot pause %s campaign %s", ErrConflict, rec.State, id)
	}
}

// ResumeCampaign re-queues a paused campaign; it continues from its
// checkpoint (fresh when it was paused before the first barrier).
func (s *Server) ResumeCampaign(id string) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if s.closed {
		return cs.rec, ErrShuttingDown
	}
	if cs.rec.State != StatePaused {
		return cs.rec, fmt.Errorf("%w: cannot resume %s campaign %s", ErrConflict, cs.rec.State, id)
	}
	cs.rec.State = StateQueued
	s.queue = append(s.queue, id)
	err := s.persistLocked()
	s.schedule()
	return cs.rec, err
}

// Cancel terminally stops a campaign: a running one stops at its next
// barrier (Stopping="cancel" until then), a queued or paused one is
// cancelled immediately. Cancelled campaigns cannot be resumed.
func (s *Server) Cancel(id string) (Record, error) {
	s.mu.Lock()
	cs, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch cs.rec.State {
	case StateRunning:
		// Overrides a pending pause: cancel is the stronger intent.
		cs.rec.Stopping = stopCancel
		cancel := cs.cancel
		rec := cs.rec
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return rec, nil
	case StateQueued, StatePaused:
		s.dequeueLocked(id)
		cs.rec.State = StateCancelled
		err := s.persistLocked()
		rec := cs.rec
		s.mu.Unlock()
		return rec, err
	default:
		rec := cs.rec
		s.mu.Unlock()
		return rec, fmt.Errorf("%w: cannot cancel %s campaign %s", ErrConflict, rec.State, id)
	}
}

// dequeueLocked removes id from the admission queue if present.
func (s *Server) dequeueLocked(id string) {
	for i, q := range s.queue {
		if q == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Subscribe opens an event stream on a running campaign: from now on, the
// campaign's run goroutine relays each session event to it, in session
// order, unless the stream is more than streamBuffer events behind. The
// stream closes when the session ends; the returned func closes it sooner
// (always call it). The record snapshot is returned alongside; for a
// campaign that is not running, the channel is nil and the snapshot is all
// there is to stream.
func (s *Server) Subscribe(id string) (Record, <-chan dejavuzz.Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return Record{}, nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if cs.cancel == nil {
		return cs.rec, nil, func() {}, nil
	}
	ch := make(chan dejavuzz.Event, streamBuffer)
	cs.streams = append(cs.streams, ch)
	return cs.rec, ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if i := slices.Index(cs.streams, ch); i >= 0 {
			cs.streams = slices.Delete(cs.streams, i, i+1)
			close(ch)
		}
	}, nil
}

// Report loads a completed campaign's report from the state directory.
func (s *Server) Report(id string) (*dejavuzz.Report, error) {
	s.mu.Lock()
	cs, ok := s.campaigns[id]
	var state State
	if ok {
		state = cs.rec.State
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if state != StateDone {
		return nil, fmt.Errorf("%w: campaign %s is %s, not done", ErrConflict, id, state)
	}
	data, err := os.ReadFile(s.reportPath(id))
	if err != nil {
		return nil, fmt.Errorf("server: read report: %w", err)
	}
	rep := &dejavuzz.Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("server: parse report: %w", err)
	}
	return rep, nil
}

// Findings returns the aggregated triage view, optionally filtered to one
// target and/or one scenario family: the deduplicated bug clusters plus the
// raw-finding total.
func (s *Server) Findings(target, scenario string) (bugs []triage.Bug, raw int) {
	raw, _ = s.store.Stats()
	all := s.store.Bugs()
	if target == "" && scenario == "" {
		return all, raw
	}
	for _, b := range all {
		if (target == "" || b.Target == target) && (scenario == "" || b.Scenario == scenario) {
			bugs = append(bugs, b)
		}
	}
	return bugs, raw
}

// CampaignRate is one running campaign's throughput gauge: iterations
// completed since its session (re)started over the wall clock since then,
// plus the events missed by its event streams over the campaign's lifetime.
type CampaignRate struct {
	ID          string
	Done        int
	ItersPerSec float64
	Dropped     int64
}

// Stats is the service health/metrics snapshot.
type Stats struct {
	Uptime        time.Duration
	WorkersBudget int
	WorkersInUse  int
	Queued        int
	ByState       map[State]int
	Iterations    int // completed iterations across all campaigns
	RawFindings   int
	TriagedBugs   int
	// CorpusEntries is the persistent cross-campaign corpus size.
	CorpusEntries int
	// DroppedEvents counts the events missed by event streams, all
	// campaigns since Open.
	DroppedEvents int64
	// PersistErrors counts failed writes of durable state since Open.
	PersistErrors int64
	// Running lists per-campaign throughput for currently running
	// campaigns, ordered by campaign ID.
	Running []CampaignRate
}

// Snapshot gathers current service statistics.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Uptime:        time.Since(s.started),
		WorkersBudget: s.budget,
		WorkersInUse:  s.inUse,
		Queued:        len(s.queue),
		ByState:       make(map[State]int),
	}
	st.DroppedEvents = s.dropped
	for _, cs := range s.campaigns {
		st.ByState[cs.rec.State]++
		st.Iterations += cs.rec.Done
		if cs.rec.State == StateRunning && !cs.runStarted.IsZero() {
			rate := 0.0
			if elapsed := time.Since(cs.runStarted).Seconds(); elapsed > 0 {
				rate = float64(cs.rec.Done-cs.startDone) / elapsed
			}
			st.Running = append(st.Running, CampaignRate{
				ID: cs.rec.ID, Done: cs.rec.Done, ItersPerSec: rate, Dropped: cs.dropped,
			})
		}
	}
	s.mu.Unlock()
	sort.Slice(st.Running, func(i, j int) bool { return st.Running[i].ID < st.Running[j].ID })
	st.RawFindings, st.TriagedBugs = s.store.Stats()
	st.CorpusEntries = s.corpus.Len()
	st.PersistErrors = s.persistErrors.Load()
	return st
}

// Shutdown gracefully stops the service: no new campaigns are accepted,
// every running campaign is cancelled so it checkpoints at its next merge
// barrier, and the registry records them as queued so the next Open resumes
// them automatically. It returns once every campaign goroutine has parked,
// or with the context's error if that takes too long (checkpoints written
// so far remain valid either way).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, cs := range s.campaigns {
		// Mark every running campaign, including ones still mid-launch
		// (cancel not wired yet) — their run goroutine checks the intent
		// right after wiring and cancels itself.
		if cs.rec.State == StateRunning && cs.rec.Stopping == "" {
			cs.rec.Stopping = stopShutdown
		}
		if cs.cancel != nil {
			cs.cancel()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	err := s.persistLocked()
	s.mu.Unlock()
	// All campaign goroutines have parked, so no harvest is in flight:
	// fold the corpus journal into its snapshot.
	if cerr := s.corpus.Close(); err == nil {
		err = cerr
	}
	return err
}
