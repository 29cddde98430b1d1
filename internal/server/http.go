package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dejavuzz"
	"dejavuzz/internal/corpus"
	"dejavuzz/internal/triage"
)

// Handler returns the service's HTTP API:
//
//	POST /campaigns                create a campaign ({"name","options"})
//	GET  /campaigns                list campaigns (paginated)
//	GET  /campaigns/{id}           one campaign's status
//	GET  /campaigns/{id}/events    live event stream (NDJSON; SSE with
//	                               Accept: text/event-stream)
//	GET  /campaigns/{id}/report    completed campaign's full report
//	POST /campaigns/{id}/pause     checkpoint at the next barrier and park
//	POST /campaigns/{id}/resume    re-queue a paused campaign
//	POST /campaigns/{id}/cancel    terminally stop
//	GET  /findings[?target=t][&scenario=s]  aggregated triage view (deduped
//	                               bugs; the bug list is paginated)
//	GET  /corpus[?target=t][&scenario=s]    persistent corpus entries,
//	                               each with its best observation
//	                               (paginated)
//	GET  /corpus/frontier          coverage frontier: per-family rows of
//	                               the kept entries under a content ID
//	GET  /scenarios                scenario-family catalog
//	GET  /healthz                  liveness + campaign counts; 503
//	                               "degraded" once a write of durable
//	                               state has failed
//	GET  /metrics                  Prometheus-style text metrics
//
// List endpoints marked paginated accept ?limit= and ?offset= over a stable
// ordering and always set X-Total-Count to the pre-pagination size.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("POST /campaigns/{id}/pause", s.handlePause)
	mux.HandleFunc("POST /campaigns/{id}/resume", s.handleResume)
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /findings", s.handleFindings)
	mux.HandleFunc("GET /corpus", s.handleCorpus)
	mux.HandleFunc("GET /corpus/frontier", s.handleFrontier)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// paginate applies the shared ?limit=&offset= convention to a list of n
// items: it sets X-Total-Count to n and returns the [lo, hi) window to
// serve. limit caps the page size (absent or negative means everything) and
// offset skips from the start of the stable ordering; a window beyond the
// end is an empty page, not an error. Malformed values write a 400 and
// return ok=false.
func paginate(w http.ResponseWriter, r *http.Request, n int) (lo, hi int, ok bool) {
	q := r.URL.Query()
	limit, offset := -1, 0
	if v := q.Get("limit"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			writeErr(w, fmt.Errorf("invalid limit %q: want a non-negative integer", v))
			return 0, 0, false
		}
		limit = p
	}
	if v := q.Get("offset"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			writeErr(w, fmt.Errorf("invalid offset %q: want a non-negative integer", v))
			return 0, 0, false
		}
		offset = p
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(n))
	lo = offset
	if lo > n {
		lo = n
	}
	hi = n
	if limit >= 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi, true
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

// writeErr maps service errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// createRequest is the create-campaign payload. Options is the wire form of
// dejavuzz.Options — see its docs for the field set and the seed/iterations
// explicit-zero convention.
type createRequest struct {
	Name    string           `json:"name"`
	Options dejavuzz.Options `json:"options"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode request: %w", err))
		return
	}
	rec, err := s.Create(req.Name, req.Options)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, rec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	recs := s.List()
	lo, hi, ok := paginate(w, r, len(recs))
	if !ok {
		return
	}
	page := recs[lo:hi]
	if page == nil {
		page = []Record{}
	}
	writeJSON(w, http.StatusOK, struct {
		Total     int      `json:"total"`
		Campaigns []Record `json:"campaigns"`
	}{len(recs), page})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Pause(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	rec, err := s.ResumeCampaign(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Report(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// wireEvent is the streamed form of one session event (or the initial
// status snapshot every stream opens with).
type wireEvent struct {
	Kind     string `json:"kind"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Coverage int    `json:"coverage"`
	// Scenarios carries the per-family campaign statistics on epoch frames:
	// picks, coverage yield, findings, and the scheduler's view of the family
	// — sampling weight, posterior mean yield and exploration bonus.
	Scenarios []dejavuzz.ScenarioStat `json:"scenarios,omitempty"`
	Finding   *dejavuzz.Finding       `json:"finding,omitempty"`
	Path      string                  `json:"path,omitempty"`
	Error     string                  `json:"error,omitempty"`
	State     State                   `json:"state,omitempty"` // status snapshots only
}

func toWireEvent(ev dejavuzz.Event) wireEvent {
	we := wireEvent{
		Kind:      ev.Kind.String(),
		Done:      ev.Done,
		Total:     ev.Total,
		Coverage:  ev.Coverage,
		Scenarios: ev.Scenarios,
		Finding:   ev.Finding,
		Path:      ev.Path,
	}
	if ev.Err != nil {
		we.Error = ev.Err.Error()
	}
	return we
}

// handleEvents streams a campaign's live session events, as the server
// relays them (see Subscribe). The default framing is NDJSON (one event
// object per line); clients sending Accept: text/event-stream get
// Server-Sent Events instead. Every stream opens with a "status" snapshot,
// so subscribing to a finished (or queued) campaign yields exactly that one
// frame. Delivery is best-effort live observation — the server's own
// triage/status consumption is lossless independently of any stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ch, cancelSub, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancelSub()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	send := func(we wireEvent) bool {
		data, err := json.Marshal(we)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", we.Kind, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	send(wireEvent{Kind: "status", State: rec.State, Done: rec.Done, Total: rec.Total, Coverage: rec.Coverage})
	if ch == nil {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !send(toWireEvent(ev)) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// findingsResponse is the aggregated triage view.
type findingsResponse struct {
	// RawFindings counts every finding campaigns ever reported, duplicates
	// included; Bugs is what they collapse to.
	RawFindings int          `json:"raw_findings"`
	BugCount    int          `json:"bug_count"`
	Bugs        []triage.Bug `json:"bugs"`
}

func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bugs, raw := s.Findings(q.Get("target"), q.Get("scenario"))
	lo, hi, ok := paginate(w, r, len(bugs))
	if !ok {
		return
	}
	page := bugs[lo:hi]
	if page == nil {
		page = []triage.Bug{}
	}
	writeJSON(w, http.StatusOK, findingsResponse{RawFindings: raw, BugCount: len(bugs), Bugs: page})
}

// corpusResponse is the paginated persistent-corpus listing.
type corpusResponse struct {
	Total   int            `json:"total"`
	Entries []corpus.Entry `json:"entries"`
}

// handleCorpus lists the persistent cross-campaign corpus, optionally
// filtered by target and/or scenario family, paginated over the stable
// entry-ID ordering.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	entries := s.corpus.List(q.Get("target"), q.Get("scenario"))
	lo, hi, ok := paginate(w, r, len(entries))
	if !ok {
		return
	}
	page := entries[lo:hi]
	if page == nil {
		page = []corpus.Entry{}
	}
	writeJSON(w, http.StatusOK, corpusResponse{Total: len(entries), Entries: page})
}

// handleFrontier serves the corpus coverage frontier: one row per (target,
// scenario family) under a content-hashed ID. The store keeps no frontier
// history, so a ?since= diff is refused rather than answered with a
// frontier its client would read as a diff.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("since") {
		writeErr(w, errors.New("since: the server keeps no frontier history; compare two /corpus/frontier responses instead"))
		return
	}
	writeJSON(w, http.StatusOK, s.corpus.Frontier())
}

// handleScenarios serves the scenario-family catalog: every family with its
// Table-3 classes, capability flags and supporting targets.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Scenarios []dejavuzz.ScenarioInfo `json:"scenarios"`
	}{dejavuzz.ScenarioCatalog()})
}

// handleHealthz answers 200 "ok", or 503 "degraded" once any write of
// durable state has failed since Open (see dvz_persist_errors_total):
// the server is live, but some state it acknowledged is not on disk.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	status, code := "ok", http.StatusOK
	if st.PersistErrors > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status        string        `json:"status"`
		UptimeSeconds float64       `json:"uptime_seconds"`
		WorkersBudget int           `json:"workers_budget"`
		WorkersInUse  int           `json:"workers_in_use"`
		Queued        int           `json:"queued"`
		Campaigns     map[State]int `json:"campaigns"`
	}{status, st.Uptime.Seconds(), st.WorkersBudget, st.WorkersInUse, st.Queued, st.ByState})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP dvz_uptime_seconds Server uptime.\ndvz_uptime_seconds %f\n", st.Uptime.Seconds())
	fmt.Fprintf(w, "# HELP dvz_workers_budget Shared worker budget.\ndvz_workers_budget %d\n", st.WorkersBudget)
	fmt.Fprintf(w, "# HELP dvz_workers_in_use Worker slots held by running campaigns.\ndvz_workers_in_use %d\n", st.WorkersInUse)
	fmt.Fprintf(w, "# HELP dvz_campaigns Campaigns by state.\n")
	for _, state := range []State{StateQueued, StateRunning, StatePaused, StateDone, StateCancelled, StateFailed} {
		fmt.Fprintf(w, "dvz_campaigns{state=%q} %d\n", state, st.ByState[state])
	}
	fmt.Fprintf(w, "# HELP dvz_iterations_total Completed fuzzing iterations across all campaigns.\ndvz_iterations_total %d\n", st.Iterations)
	if len(st.Running) > 0 {
		fmt.Fprintf(w, "# HELP dvz_campaign_iters_per_sec Per-campaign fuzzing throughput since the session (re)started.\n")
		for _, r := range st.Running {
			fmt.Fprintf(w, "dvz_campaign_iters_per_sec{id=%q} %f\n", r.ID, r.ItersPerSec)
		}
		fmt.Fprintf(w, "# HELP dvz_campaign_iterations Per-campaign completed iterations.\n")
		for _, r := range st.Running {
			fmt.Fprintf(w, "dvz_campaign_iterations{id=%q} %d\n", r.ID, r.Done)
		}
		fmt.Fprintf(w, "# HELP dvz_campaign_events_dropped Per-campaign events missed by its event streams over the campaign's lifetime.\n")
		for _, r := range st.Running {
			fmt.Fprintf(w, "dvz_campaign_events_dropped{id=%q} %d\n", r.ID, r.Dropped)
		}
	}
	fmt.Fprintf(w, "# HELP dvz_findings_raw_total Raw findings before triage.\ndvz_findings_raw_total %d\n", st.RawFindings)
	fmt.Fprintf(w, "# HELP dvz_findings_bugs Deduplicated triaged bugs.\ndvz_findings_bugs %d\n", st.TriagedBugs)
	fmt.Fprintf(w, "# HELP dvz_corpus_entries Persistent cross-campaign corpus entries.\ndvz_corpus_entries %d\n", st.CorpusEntries)
	fmt.Fprintf(w, "# HELP dvz_events_dropped_total Events missed by event streams, all campaigns.\ndvz_events_dropped_total %d\n", st.DroppedEvents)
	fmt.Fprintf(w, "# HELP dvz_persist_errors_total Failed writes of findings, corpus, registry, checkpoint autosaves and reports.\ndvz_persist_errors_total %d\n", st.PersistErrors)
}
