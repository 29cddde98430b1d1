package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dejavuzz"
	"dejavuzz/internal/core"
	"dejavuzz/internal/corpus"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/server"
	"dejavuzz/internal/triage"
	"dejavuzz/internal/uarch"
)

// The service-mix workload: an in-process dvz-server (worker budget 2)
// driven over loopback HTTP. Campaign submissions are a closed loop that
// keeps two campaigns in flight from a fixed list; a reader issues
// GET /findings and GET /campaigns/{id} on a fixed schedule (an open loop,
// timed from when each read was due); every finding-carrying barrier seen
// through Server.Subscribe is timed until GET /campaigns/{id} reports it
// durable. The run ends with Shutdown and timed reopens.

const (
	mixBudget       = 2
	mixInFlight     = 2
	mixBoomIters    = 500
	mixBoomMerge    = 16
	mixIsasimIters  = 12000
	mixReadInterval = 40 * time.Millisecond
)

// mixPlan is the fixed campaign list: boom at merge_every 16 and isasim,
// the last one warm-started from the corpus the others harvested. Seeds
// derive from the workload seed.
func mixPlan(e *env) []dejavuzz.Options {
	boomIters, isaIters := mixBoomIters, mixIsasimIters
	if e.smoke {
		boomIters, isaIters = 64, 512
	}
	seed := func(k int) int64 { return e.seed*1000 + int64(k) }
	boom := func(k int, warm bool) dejavuzz.Options {
		return dejavuzz.Options{Target: "boom", Seed: seed(k), SeedSet: true, Iterations: boomIters,
			IterationsSet: true, MergeEvery: mixBoomMerge, WarmStart: warm}
	}
	isa := func(k int) dejavuzz.Options {
		return dejavuzz.Options{Target: "isasim", Seed: seed(k), SeedSet: true, Iterations: isaIters, IterationsSet: true}
	}
	return []dejavuzz.Options{boom(1, false), isa(2), boom(3, false), boom(4, false), isa(5), boom(6, true)}
}

// errorLog counts the error lines the server logs through Config.Log:
// persist, harvest, triage, autosave and report-save failures.
type errorLog struct{ n atomic.Int64 }

var serverErrorMarks = []string{"persist:", "corpus harvest:", "triage store:", "checkpoint autosave:", "save report:", ": failed:"}

func (l *errorLog) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		for _, m := range serverErrorMarks {
			if strings.Contains(line, m) {
				l.n.Add(1)
				break
			}
		}
	}
	return len(p), nil
}

// service is one running server with its loopback HTTP front end.
type service struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

func startService(dir string, logw io.Writer) (*service, error) {
	srv, err := server.Open(server.Config{StateDir: dir, Workers: mixBudget, Log: log.New(logw, "", 0)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the service down: campaigns park at their next barrier, then
// the HTTP front end closes and its goroutine is awaited.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.http.Shutdown(ctx); err == nil {
		err = cerr
	}
	<-s.done
	return err
}

// client is the workload's HTTP client; it counts every request and every
// non-2xx response.
type client struct {
	http      *http.Client
	base      string
	requests  atomic.Int64
	failures  atomic.Int64
	spans     *sharedSpans
	transport *http.Transport
}

func newClient(base string, spans *sharedSpans) *client {
	tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 16}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, spans: spans, transport: tr}
}

// do issues one request and returns its body, decoding a 2xx JSON body
// into out when out is non-nil.
func (c *client) do(method, path, req string, body []byte, out any) ([]byte, error) {
	c.requests.Add(1)
	start := c.spans.now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.spans.add("http."+strings.ToLower(method)+" "+routeOf(path), req, start, c.spans.now())
	if err != nil {
		c.failures.Add(1)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		c.failures.Add(1)
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return data, nil
}

// routeOf names a request path's route for span names.
func routeOf(path string) string {
	p, _, _ := strings.Cut(path, "?")
	parts := strings.Split(strings.Trim(p, "/"), "/")
	if len(parts) >= 2 && parts[0] == "campaigns" {
		parts[1] = "{id}"
	}
	return "/" + strings.Join(parts, "/")
}

// sharedSpans is a mutex-guarded span log for the mix's client goroutines;
// a nil log records nothing (the untraced run).
type sharedSpans struct {
	mu  sync.Mutex
	log spanLog
}

func (s *sharedSpans) now() int64 {
	if s == nil {
		return 0
	}
	return s.log.now()
}

func (s *sharedSpans) add(name, req string, start, end int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.log.add(name, req, 0, start, end)
	s.mu.Unlock()
}

// mixRun is one measured execution of the campaign list.
type mixRun struct {
	makespan    time.Duration
	firstEvents []time.Duration
	durable     []time.Duration
	reads       []time.Duration
	records     []server.Record
	// digests holds every report's digest, in plan order; reports holds
	// the reports themselves only when the run was asked to keep them.
	digests    []string
	reports    []*dejavuzz.Report
	iterations int

	requests, httpFailed int64
	campaignsFailed      int
	logErrors            int64
	dropped              int64

	storeBytes, registryBytes int64
	bugs, corpusEntries       int
}

// mixCampaign runs one campaign of the list through the closed loop:
// create it, watch its barriers through Server.Subscribe, time each
// finding-carrying barrier until the API reports it durable, and wait
// until it is done.
func (m *mixRun) mixCampaign(svc *service, c *client, mu *sync.Mutex, current *string, opts dejavuzz.Options, name string) error {
	body, err := json.Marshal(struct {
		Name    string           `json:"name"`
		Options dejavuzz.Options `json:"options"`
	}{name, opts})
	if err != nil {
		return err
	}
	var rec server.Record
	if _, err := c.do(http.MethodPost, "/campaigns", name, body, &rec); err != nil {
		return err
	}
	created := time.Now()
	id := rec.ID
	mu.Lock()
	*current = id
	mu.Unlock()

	var events <-chan dejavuzz.Event
	for {
		r, ch, unsub, err := svc.srv.Subscribe(id)
		if err != nil {
			return err
		}
		if ch != nil {
			events = ch
			defer unsub()
			break
		}
		if r.State.Terminal() {
			// The campaign ended before the subscription took hold: there
			// is nothing to time, only its outcome to read.
			closed := make(chan dejavuzz.Event)
			close(closed)
			events = closed
			break
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Durability probes run beside the subscriber so it never falls behind
	// the session's best-effort buffer; the queue holds one entry per
	// barrier the campaign can emit.
	type probe struct {
		done int
		at   time.Time
	}
	merge := opts.MergeEvery
	if merge == 0 {
		merge = core.DefaultOptions(uarch.KindBOOM).MergeEvery
	}
	probes := make(chan probe, opts.Iterations/merge+2)
	var durable []time.Duration
	var probeErr error
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for p := range probes {
			for {
				var r server.Record
				if _, err := c.do(http.MethodGet, "/campaigns/"+id, id, nil, &r); err != nil {
					probeErr = err
					return
				}
				if r.Done >= p.done || r.State.Terminal() {
					durable = append(durable, time.Since(p.at))
					break
				}
				time.Sleep(250 * time.Microsecond)
			}
		}
	}()

	first := time.Duration(-1)
	findings := 0
	for ev := range events {
		switch ev.Kind {
		case dejavuzz.EventFinding:
			findings++
		case dejavuzz.EventEpoch:
			at := time.Now()
			if first < 0 && ev.Done == min(merge, opts.Iterations) {
				first = at.Sub(created)
			}
			if findings > 0 {
				probes <- probe{ev.Done, at}
			}
			findings = 0
		}
	}
	close(probes)
	<-probed
	if probeErr != nil {
		return probeErr
	}

	// The session has ended; the campaign is done once the server has
	// written its report and parked it.
	for {
		if _, err := c.do(http.MethodGet, "/campaigns/"+id, id, nil, &rec); err != nil {
			return err
		}
		if rec.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if first >= 0 {
		m.firstEvents = append(m.firstEvents, first)
	}
	m.durable = append(m.durable, durable...)
	if rec.State != server.StateDone {
		m.campaignsFailed++
	}
	return nil
}

// reader is the open-loop reader: GET /findings and GET /campaigns/{id}
// every mixReadInterval, each timed from when it was due.
func (m *mixRun) reader(ctx context.Context, c *client, ids func() string, interval time.Duration) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		if _, err := c.do(http.MethodGet, "/findings", "reader", nil, nil); err == nil {
			m.reads = append(m.reads, time.Since(due))
		}
		if id := ids(); id != "" {
			c.do(http.MethodGet, "/campaigns/"+id, "reader", nil, nil) //nolint:errcheck // counted by the client
		}
	}
}

// runMixOnce executes the campaign list against a fresh server. It keeps
// the reports read back only when keep is set; otherwise only their
// digests.
func runMixOnce(e *env, dir string, spans *sharedSpans, keep bool) (*mixRun, error) {
	state := filepath.Join(dir, "state")
	if err := os.RemoveAll(state); err != nil {
		return nil, err
	}
	logw := &errorLog{}
	svc, err := startService(state, logw)
	if err != nil {
		return nil, err
	}
	c := newClient(svc.base, spans)
	defer c.transport.CloseIdleConnections()
	m := &mixRun{}
	plan := mixPlan(e)

	var (
		mu      sync.Mutex
		current string
		errs    []error
		wg      sync.WaitGroup
	)
	interval := mixReadInterval
	if e.smoke {
		interval = 5 * time.Millisecond
	}
	readCtx, stopReader := context.WithCancel(context.Background())
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		m.reader(readCtx, c, func() string { mu.Lock(); defer mu.Unlock(); return current }, interval)
	}()

	start := time.Now()
	slots := make(chan struct{}, mixInFlight)
	names := map[string]int{}
	for i, o := range plan {
		if o.WarmStart {
			// The warm-started campaign resolves its set from the corpus of
			// every earlier campaign, so the set is the same on every run.
			wg.Wait()
		}
		slots <- struct{}{}
		wg.Add(1)
		name := fmt.Sprintf("mix-%d-%s", i+1, o.Target)
		names[name] = i
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			if err := m.mixCampaign(svc, c, &mu, &current, o, name); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.makespan = time.Since(start)
	stopReader()
	<-readerDone
	if len(errs) > 0 {
		svc.stop()
		return nil, errors.Join(errs...)
	}

	// Read the outcome back over the API.
	var list struct {
		Campaigns []server.Record `json:"campaigns"`
	}
	if _, err := c.do(http.MethodGet, "/campaigns", "final", nil, &list); err != nil {
		svc.stop()
		return nil, err
	}
	// Records come back in creation order, which races between the two
	// in-flight submissions; the campaign name carries the plan index.
	m.records = make([]server.Record, len(plan))
	for _, rec := range list.Campaigns {
		i, ok := names[rec.Name]
		if !ok || m.records[i].ID != "" {
			svc.stop()
			return nil, fmt.Errorf("unexpected campaign %s (%q) on the server", rec.ID, rec.Name)
		}
		m.records[i] = rec
	}
	for _, rec := range m.records {
		rep := &dejavuzz.Report{}
		if _, err := c.do(http.MethodGet, "/campaigns/"+rec.ID+"/report", rec.ID, nil, rep); err != nil {
			svc.stop()
			return nil, err
		}
		m.digests = append(m.digests, digest(rep))
		if keep {
			m.reports = append(m.reports, rep)
		}
		m.iterations += len(rep.Iters)
	}
	var findings struct {
		Bugs int `json:"bug_count"`
	}
	if _, err := c.do(http.MethodGet, "/findings?limit=0", "final", nil, &findings); err != nil {
		svc.stop()
		return nil, err
	}
	m.bugs = findings.Bugs
	metrics, err := c.metrics()
	if err != nil {
		svc.stop()
		return nil, err
	}
	m.dropped = int64(metrics["dvz_events_dropped_total"])
	m.corpusEntries = int(metrics["dvz_corpus_entries"])
	if err := svc.stop(); err != nil {
		return nil, err
	}
	m.storeBytes = fileSize(filepath.Join(state, "findings.json"))
	m.registryBytes = fileSize(filepath.Join(state, "campaigns.json"))
	m.requests, m.httpFailed = c.requests.Load(), c.failures.Load()
	m.logErrors = logw.n.Load()
	return m, nil
}

// metrics reads the unlabelled gauges of GET /metrics.
func (c *client) metrics() (map[string]float64, error) {
	data, err := c.do(http.MethodGet, "/metrics", "final", nil, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// reopen times one restart of the service over an existing state
// directory: Open until GET /healthz answers. Its requests are counted on
// acct. It starts from a collected heap, so every sample does the same
// allocation work.
func reopen(state string, logw io.Writer, acct *client) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	svc, err := startService(state, logw)
	if err != nil {
		return 0, err
	}
	hc := newClient(svc.base, nil)
	_, err = hc.do(http.MethodGet, "/healthz", "reopen", nil, nil)
	took := time.Since(t0)
	hc.transport.CloseIdleConnections()
	acct.requests.Add(hc.requests.Load())
	acct.failures.Add(hc.failures.Load())
	if serr := svc.stop(); err == nil {
		err = serr
	}
	return took, err
}

// mixReference runs every campaign of the list in process, with the same
// options (and the warm-start set the server pinned), and returns the
// reports; events, when non-nil, receives each campaign's event stream.
func mixReference(plan []dejavuzz.Options, records []server.Record, events func(i int, ev dejavuzz.Event)) ([]*dejavuzz.Report, error) {
	reps := make([]*dejavuzz.Report, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	slots := make(chan struct{}, mixBudget)
	for i, o := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			var extra []dejavuzz.Option
			if w := records[i].Warm; w != nil {
				extra = append(extra, dejavuzz.WithWarmStart(dejavuzz.WarmStart{Snapshot: w.Snapshot, Seeds: w.Seeds, Prior: w.Prior}))
			}
			c, err := o.Campaign(extra...)
			if err != nil {
				errs[i] = err
				return
			}
			sess, err := c.Start(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			for ev := range sess.Events() {
				if events != nil {
					events(i, ev)
				}
			}
			reps[i], errs[i] = sess.Wait()
		}()
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

// checkMix compares a run's report digests against the in-process
// references.
func checkMix(r *report, k int, m *mixRun, want []string) {
	r.expect(fmt.Sprintf("rep-%d-campaign-count", k), len(m.digests) == len(want), "%d reports, want %d", len(m.digests), len(want))
	for i, d := range m.digests {
		if i < len(want) {
			r.sameDigest(fmt.Sprintf("rep-%d-%s-vs-in-process", k, m.records[i].ID), want[i], d)
		}
	}
}

// runMix measures the service mix with tracing off. Only the first run
// keeps its reports (for the deterministic counters); later runs keep their
// digests, so the memory the benchmark holds does not grow with the number
// of runs.
func runMix(e *env) error {
	r := e.rep
	plan := mixPlan(e)
	mixSizes(e, plan)
	dir, err := e.scratch("mix")
	if err != nil {
		return err
	}
	if !resetPeakRSS() {
		r.note("peak RSS counter could not be reset; peak_rss_mb covers the whole process")
	}
	// Every execution of the list is followed by timed reopens of its state
	// directory, topped up after the window, as the campaign workloads
	// probe their set-up (probesPerRep, minProbes). One reopen costs about
	// 15 ms.
	logw := &errorLog{}
	acct := &client{}
	var setups []time.Duration
	probe := func(k int) error {
		for ; k > 0; k-- {
			d, err := reopen(filepath.Join(dir, "state"), logw, acct)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		return nil
	}
	var runs []*mixRun
	window := time.Now()
	for len(runs) < 2 || time.Since(window) < e.seconds {
		m, err := runMixOnce(e, dir, nil, len(runs) == 0)
		if err != nil {
			return err
		}
		runs = append(runs, m)
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
	r.Attempted += acct.requests.Load()
	r.Failed += acct.failures.Load() + logw.n.Load()

	want, err := mixDigests(e, plan, runs[0])
	if err != nil {
		return err
	}
	var first, durable, reads []time.Duration
	var rates, makespans []float64
	var iters int
	var makespan time.Duration
	for k, m := range runs {
		checkMix(r, k+1, m, want)
		mixOps(r, m)
		first = append(first, m.firstEvents...)
		durable = append(durable, m.durable...)
		reads = append(reads, m.reads...)
		rates = append(rates, float64(m.iterations)/m.makespan.Seconds())
		makespans = append(makespans, m.makespan.Seconds())
		iters += m.iterations
		makespan += m.makespan
	}

	r.set("setup_s", median(durations(setups, sec)), "s")
	// As for the campaign workloads, throughput is the window's total work
	// over its total makespan.
	r.set("iters_per_s", float64(iters)/makespan.Seconds(), "iter/s")
	r.info("rep_rate_spread", repSpread(rates), "ratio")
	r.info("create_to_first_event_ms", median(durations(first, ms)), "ms")
	r.set("peak_rss_mb", peak, "MB")
	r.info("mix_makespan_s", median(makespans), "s")
	r.info("create_to_first_event_samples", float64(len(first)), "count")
	tail(r, "barrier_durable", durable)
	tail(r, "findings_read", reads)
	r.info("setup_samples", float64(len(setups)), "count")
	mixCounters(r, plan, runs[len(runs)-1], runs[0])
	return nil
}

// tail reports a latency sample's median and 95th percentile with its
// sample count; the percentile is flagged when fewer than ten samples lie
// beyond it.
func tail(r *report, name string, xs []time.Duration) {
	v := durations(xs, ms)
	r.info(name+"_p50_ms", median(v), "ms")
	r.info(name+"_p95_ms", quantile(v, 0.95), "ms")
	r.info(name+"_samples", float64(len(v)), "count")
	if len(v) < 200 {
		r.note("%s: %d samples leave fewer than 10 beyond p95", name, len(v))
	}
}

func mixSizes(e *env, plan []dejavuzz.Options) {
	s := e.rep.Meta.Sizes
	s["campaigns"] = len(plan)
	s["server_workers"] = mixBudget
	s["in_flight"] = mixInFlight
	s["read_interval_ms"] = int(mixReadInterval / time.Millisecond)
	for _, o := range plan {
		s[o.Target+"_iterations"] = o.Iterations
	}
}

// mixDigests runs the in-process references for the first run's records
// and returns their digests.
func mixDigests(e *env, plan []dejavuzz.Options, first *mixRun) ([]string, error) {
	if len(first.records) != len(plan) {
		return nil, fmt.Errorf("server lists %d campaigns, plan has %d", len(first.records), len(plan))
	}
	refs, err := mixReference(plan, first.records, nil)
	if err != nil {
		return nil, err
	}
	want := make([]string, len(refs))
	for i, ref := range refs {
		want[i] = wantDigest(e, ref)
		e.rep.Attempted += int64(len(ref.Iters))
	}
	return want, nil
}

// mixOps folds one run's operation accounting into the report.
func mixOps(r *report, m *mixRun) {
	r.Attempted += m.requests + int64(len(m.digests))
	r.Failed += m.httpFailed + int64(m.campaignsFailed) + m.logErrors + m.dropped
}

// mixCounters records the deterministic counters summed over the list.
func mixCounters(r *report, plan []dejavuzz.Options, last, first *mixRun) {
	var c counters
	for i, rep := range first.reports {
		c.Iterations += len(rep.Iters)
		c.Sims += rep.Sims
		c.CoveragePoints += rep.Coverage
		c.RawFindings += len(rep.Findings)
		c.DistinctBugs += distinctBugs(plan[i].Target, rep.Findings)
	}
	c.Digest = mixDigest(first.reports)
	r.Counters = c
	r.info("triage_bugs", float64(last.bugs), "count")
	r.info("findings_store_kb", float64(last.storeBytes)/1024, "KB")
}

// mixDigest is the digest of the whole list's reports.
func mixDigest(reps []*dejavuzz.Report) string {
	h := sha256.New()
	for _, rep := range reps {
		io.WriteString(h, digest(rep))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// consumerLog is one in-process reference campaign's event stream, as the
// server's consumers see it: its findings and its per-barrier harvests.
type consumerLog struct {
	findings []dejavuzz.Finding
	harvests [][]dejavuzz.HarvestedSeed
}

// traceMix is the traced form of the service mix: an untraced and a
// traced run (the traced one records a span per HTTP request; their
// makespan difference is the tracing overhead), then the server's
// consumers are replayed through their public calls — triage.Store.Add per
// finding, corpus.Store.Harvest per barrier, corpus.Store.WarmStart for the
// warm-started campaign — in creation order, from the in-process
// references' lossless event streams.
func traceMix(e *env) error {
	r := e.rep
	plan := mixPlan(e)
	mixSizes(e, plan)
	dir, err := e.scratch("mix")
	if err != nil {
		return err
	}
	plain, err := runMixOnce(e, dir, nil, false)
	if err != nil {
		return err
	}
	spans := &sharedSpans{log: spanLog{origin: time.Now()}}
	traced, err := runMixOnce(e, dir, spans, true)
	if err != nil {
		return err
	}
	r.Meta.Reps = 2

	logs := make([]consumerLog, len(plan))
	refs, err := mixReference(plan, traced.records, func(i int, ev dejavuzz.Event) {
		switch ev.Kind {
		case dejavuzz.EventFinding:
			logs[i].findings = append(logs[i].findings, *ev.Finding)
		case dejavuzz.EventEpoch:
			if len(ev.Harvest) > 0 {
				logs[i].harvests = append(logs[i].harvests, ev.Harvest)
			}
		}
	})
	if err != nil {
		return err
	}
	want := make([]string, len(refs))
	for i, ref := range refs {
		want[i] = wantDigest(e, ref)
		r.Attempted += int64(len(ref.Iters))
	}
	for k, m := range []*mixRun{plain, traced} {
		checkMix(r, k+1, m, want)
		mixOps(r, m)
	}

	rlog := &spanLog{origin: spans.log.origin}
	if err := replayConsumers(filepath.Join(dir, "replay"), plan, traced.records, logs, rlog); err != nil {
		return err
	}
	self := selfTimes(rlog.spans)
	count := map[string]int{}
	for _, sp := range rlog.spans {
		count[sp.Name]++
	}
	perCall := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return ms(time.Duration(self[name])) / float64(count[name])
	}
	r.set("triage.add_ms", perCall("triage.add"), "ms")
	r.set("corpus.harvest_ms", perCall("corpus.harvest"), "ms")
	r.set("corpus.warmstart_ms", perCall("corpus.warmstart"), "ms")
	r.set("trace.consumer_ms", ms(time.Duration(self["triage.add"]+self["corpus.harvest"]+self["corpus.warmstart"])), "ms")
	r.set("triage.store_kb", float64(traced.storeBytes)/1024, "KB")
	r.set("triage.bugs", float64(traced.bugs), "count")
	r.set("corpus.entries", float64(traced.corpusEntries), "count")
	r.set("server.registry_kb", float64(traced.registryBytes)/1024, "KB")
	r.set("server.events_dropped", float64(traced.dropped), "count")
	r.set("trace.overhead_pct", (traced.makespan.Seconds()-plain.makespan.Seconds())/plain.makespan.Seconds()*100, "%")

	var iters []core.IterStat
	sims, cov, found := 0, 0, 0
	for _, ref := range refs {
		iters = append(iters, ref.Iters...)
		sims += ref.Sims
		cov += ref.Coverage
		found += len(ref.Findings)
	}
	r.set("core.sims_per_iter", float64(sims)/float64(len(iters)), "count")
	r.set("core.coverage_points", float64(cov), "count")
	r.set("core.findings", float64(found), "count")
	outcomeRatios(r, iters)
	mixCounters(r, plan, traced, traced)

	path := filepath.Join(e.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
	if err := writeSpans(path, spans.log.spans, rlog.spans); err != nil {
		return err
	}
	r.note("spans written to %s", path)
	fillLayers(r)
	return nil
}

// replayConsumers feeds the recorded findings and harvests through fresh
// triage and corpus stores, timing each call.
func replayConsumers(dir string, plan []dejavuzz.Options, records []server.Record, logs []consumerLog, l *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	store, err := triage.Open(filepath.Join(dir, "findings.json"))
	if err != nil {
		return err
	}
	cst, err := corpus.Open(filepath.Join(dir, "corpus"))
	if err != nil {
		return err
	}
	for i, o := range plan {
		id, target, seed := records[i].ID, o.EffectiveTarget(), o.EffectiveSeed()
		fp := corpus.Fingerprint(target, gen.VariantDerived, o.Bugless)
		if o.WarmStart {
			sp := l.begin("corpus.warmstart", id, 0)
			cst.WarmStart(target, fp, dejavuzz.Scenarios(), seed, 0)
			l.end(sp)
		}
		for _, f := range logs[i].findings {
			sp := l.begin("triage.add", id, 0)
			_, _, err := store.Add(id, target, seed, f)
			l.end(sp)
			if err != nil {
				cst.Close()
				return err
			}
		}
		for _, h := range logs[i].harvests {
			sp := l.begin("corpus.harvest", id, 0)
			_, err := cst.Harvest(id, target, fp, h)
			l.end(sp)
			if err != nil {
				cst.Close()
				return err
			}
		}
	}
	return cst.Close()
}
