package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dejavuzz"
)

func openTestServer(t *testing.T, stateDir string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := Open(Config{StateDir: stateDir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, wantStatus, buf.String())
	}
	var v T
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("decode %s: %v", buf.String(), err)
	}
	return v
}

func createCampaign(t *testing.T, base, payload string) Record {
	t.Helper()
	return decodeBody[Record](t, postJSON(t, base+"/campaigns", payload), http.StatusCreated)
}

// pollRecord polls a campaign until cond holds (or the deadline kills the
// test).
func pollRecord(t *testing.T, base, id string, what string, cond func(Record) bool) Record {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		rec := decodeBody[Record](t, resp, http.StatusOK)
		if cond(rec) {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %s: %+v", id, what, rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getReport(t *testing.T, base, id string) *dejavuzz.Report {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[*dejavuzz.Report](t, resp, http.StatusOK)
}

// reportJSON canonicalises a report for byte comparison, zeroing the
// wall-clock Duration resume legitimately changes.
func reportJSON(t *testing.T, rep *dejavuzz.Report) string {
	t.Helper()
	cp := *rep
	cp.Duration = 0
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// directReport runs the same campaign in-process, uninterrupted — the
// ground truth server-resumed reports must match byte-for-byte.
func directReport(t *testing.T, o dejavuzz.Options) *dejavuzz.Report {
	t.Helper()
	c, err := o.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	return c.Run()
}

// TestServerTriageDedupAcrossSeeds is the triage e2e: two campaigns on the
// same target with different seeds, created and observed entirely over
// HTTP; the /findings view must collapse identical findings — within one
// campaign and across the two seeds — into single bugs with occurrence
// counts.
func TestServerTriageDedupAcrossSeeds(t *testing.T) {
	srv, ts := openTestServer(t, t.TempDir(), 2)
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	// seed-one is long enough (many barriers) that its session is still live
	// when the event-stream subscription below attaches — the engine's
	// context-reuse speedup made 48-iteration boom campaigns finish in tens
	// of milliseconds.
	rec1 := createCampaign(t, ts.URL, `{"name":"seed-one","options":{"target":"boom","seed":1,"iterations":512,"merge_every":8}}`)
	rec2 := createCampaign(t, ts.URL, `{"name":"seed-two","options":{"target":"boom","seed":2,"iterations":48,"merge_every":8}}`)

	// Live event stream: at minimum the status frame, then barrier events
	// while the campaign runs. Subscribe once seed-one is admitted: a stream
	// opened on a still-queued campaign carries only the status frame.
	pollRecord(t, ts.URL, rec1.ID, "admitted", func(r Record) bool { return r.State != StateQueued })
	resp, err := http.Get(ts.URL + "/campaigns/" + rec1.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("event stream closed before the status frame")
	}
	var first struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
	}
	if first.Kind != "status" {
		t.Fatalf("first frame kind=%q, want status", first.Kind)
	}
	streamed := 0
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON frame %q: %v", sc.Text(), err)
		}
		streamed++
	}
	resp.Body.Close()

	done := func(r Record) bool { return r.State == StateDone }
	fin1 := pollRecord(t, ts.URL, rec1.ID, "done", done)
	fin2 := pollRecord(t, ts.URL, rec2.ID, "done", done)
	if fin1.Findings == 0 || fin2.Findings == 0 {
		t.Fatalf("expected findings from both campaigns, got %d and %d", fin1.Findings, fin2.Findings)
	}
	if streamed == 0 {
		t.Error("event stream carried no live events")
	}

	resp, err = http.Get(ts.URL + "/findings")
	if err != nil {
		t.Fatal(err)
	}
	view := decodeBody[findingsResponse](t, resp, http.StatusOK)
	raw := fin1.Findings + fin2.Findings
	if view.RawFindings != raw {
		t.Fatalf("raw findings %d, want %d (every reported finding triaged)", view.RawFindings, raw)
	}
	if view.BugCount >= raw {
		t.Fatalf("triage did not dedup: %d bugs from %d raw findings", view.BugCount, raw)
	}
	total := 0
	crossSeed := false
	for _, b := range view.Bugs {
		total += b.Count
		if len(b.Campaigns) == 2 && b.Count >= 2 {
			crossSeed = true
			if len(b.Seeds) != 2 || b.Seeds[0] != 1 || b.Seeds[1] != 2 {
				t.Fatalf("cross-campaign bug carries seeds %v, want [1 2]", b.Seeds)
			}
		}
	}
	if total != raw {
		t.Fatalf("occurrence counts sum to %d, want %d", total, raw)
	}
	if !crossSeed {
		t.Fatalf("no bug deduplicated across the two seeds; bugs: %+v", view.Bugs)
	}

	// The filtered view matches (both campaigns ran on boom).
	resp, err = http.Get(ts.URL + "/findings?target=boom")
	if err != nil {
		t.Fatal(err)
	}
	filtered := decodeBody[findingsResponse](t, resp, http.StatusOK)
	if filtered.BugCount != view.BugCount {
		t.Fatalf("target filter lost bugs: %d vs %d", filtered.BugCount, view.BugCount)
	}
	resp, err = http.Get(ts.URL + "/findings?target=isasim")
	if err != nil {
		t.Fatal(err)
	}
	if empty := decodeBody[findingsResponse](t, resp, http.StatusOK); empty.BugCount != 0 {
		t.Fatalf("isasim filter returned %d boom bugs", empty.BugCount)
	}
}

// TestServerShutdownResume is the graceful-shutdown e2e the acceptance
// criteria name: two campaigns on different targets run concurrently over
// HTTP; Shutdown checkpoints both at their next merge barrier; a second
// server over the same state directory resumes them automatically, and
// both finish with reports byte-identical (modulo Duration) to
// uninterrupted in-process runs.
func TestServerShutdownResume(t *testing.T) {
	// Campaign lengths balance two wall-clock constraints: long enough that
	// both are still mid-flight when Shutdown fires (tens of milliseconds
	// after their first barriers — the context-reuse engine runs boom at
	// ~1k iters/s and isasim at ~6k iters/s per worker), yet short enough
	// to finish within the poll deadline under -race, which slows the
	// engine by an order of magnitude.
	stateDir := t.TempDir()
	srv1, ts1 := openTestServer(t, stateDir, 2)

	isaOpts := dejavuzz.Options{Target: "isasim", Seed: 5, Iterations: 4000, MergeEvery: 64}
	boomOpts := dejavuzz.Options{Target: "boom", Seed: 1, Iterations: 1600, MergeEvery: 8}
	recA := createCampaign(t, ts1.URL, `{"name":"arch","options":{"target":"isasim","seed":5,"iterations":4000,"merge_every":64}}`)
	recB := createCampaign(t, ts1.URL, `{"name":"uarch","options":{"target":"boom","seed":1,"iterations":1600,"merge_every":8}}`)

	// Both must run at once on the budget of 2 — the multi-tenant claim.
	pollRecord(t, ts1.URL, recA.ID, "running", func(r Record) bool { return r.State == StateRunning })
	pollRecord(t, ts1.URL, recB.ID, "running", func(r Record) bool { return r.State == StateRunning })
	both := srv1.Snapshot()
	if both.ByState[StateRunning] != 2 {
		t.Fatalf("campaigns did not run concurrently: %+v", both.ByState)
	}

	// Let each cross at least one barrier so the resume is a genuine
	// mid-campaign continuation, then pull the plug.
	pollRecord(t, ts1.URL, recA.ID, "progress", func(r Record) bool { return r.Done > 0 })
	pollRecord(t, ts1.URL, recB.ID, "progress", func(r Record) bool { return r.Done > 0 })
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv1.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	for _, rec := range srv1.List() {
		if rec.State != StateQueued {
			t.Fatalf("campaign %s persisted as %s after shutdown, want queued", rec.ID, rec.State)
		}
		if rec.Done == 0 || rec.Done >= rec.Total {
			t.Fatalf("campaign %s shut down at %d/%d — not mid-campaign", rec.ID, rec.Done, rec.Total)
		}
	}

	// Restart over the same state directory: both campaigns must resume
	// without any client action and run to completion.
	srv2, ts2 := openTestServer(t, stateDir, 2)
	defer srv2.Shutdown(context.Background()) //nolint:errcheck
	finA := pollRecord(t, ts2.URL, recA.ID, "done", func(r Record) bool { return r.State == StateDone })
	finB := pollRecord(t, ts2.URL, recB.ID, "done", func(r Record) bool { return r.State == StateDone })
	if finA.Done != finA.Total || finB.Done != finB.Total {
		t.Fatalf("resumed campaigns did not finish: %+v / %+v", finA, finB)
	}

	// Byte-identical reports, modulo the wall-clock fields.
	wantA := reportJSON(t, directReport(t, isaOpts))
	wantB := reportJSON(t, directReport(t, boomOpts))
	gotA := reportJSON(t, getReport(t, ts2.URL, recA.ID))
	gotB := reportJSON(t, getReport(t, ts2.URL, recB.ID))
	if gotA != wantA {
		t.Errorf("isasim report diverged after shutdown+resume:\n got %.200s...\nwant %.200s...", gotA, wantA)
	}
	if gotB != wantB {
		t.Errorf("boom report diverged after shutdown+resume:\n got %.200s...\nwant %.200s...", gotB, wantB)
	}
}

// TestServerPauseResumeCancel exercises the remaining lifecycle endpoints
// plus healthz/metrics.
func TestServerPauseResumeCancel(t *testing.T) {
	srv, ts := openTestServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	rec := createCampaign(t, ts.URL, `{"name":"pausable","options":{"target":"isasim","seed":3,"iterations":8000,"merge_every":64}}`)
	pollRecord(t, ts.URL, rec.ID, "progress", func(r Record) bool { return r.Done > 0 })

	decodeBody[Record](t, postJSON(t, ts.URL+"/campaigns/"+rec.ID+"/pause", ""), http.StatusAccepted)
	paused := pollRecord(t, ts.URL, rec.ID, "paused", func(r Record) bool { return r.State == StatePaused })
	if paused.Done == 0 || paused.Done >= paused.Total {
		t.Fatalf("paused at %d/%d — expected a mid-campaign barrier", paused.Done, paused.Total)
	}

	// While paused, the budget is free: a second campaign runs to done.
	other := createCampaign(t, ts.URL, `{"options":{"target":"isasim","seed":4,"iterations":64,"merge_every":16}}`)
	pollRecord(t, ts.URL, other.ID, "done", func(r Record) bool { return r.State == StateDone })

	decodeBody[Record](t, postJSON(t, ts.URL+"/campaigns/"+rec.ID+"/resume", ""), http.StatusAccepted)
	resumed := pollRecord(t, ts.URL, rec.ID, "running or done", func(r Record) bool {
		return r.State == StateRunning || r.State == StateDone
	})
	if resumed.Done < paused.Done {
		t.Fatalf("resume lost progress: %d < %d", resumed.Done, paused.Done)
	}

	decodeBody[Record](t, postJSON(t, ts.URL+"/campaigns/"+rec.ID+"/cancel", ""), http.StatusAccepted)
	pollRecord(t, ts.URL, rec.ID, "cancelled or done", func(r Record) bool { return r.State.Terminal() })

	// Cancel is terminal: resume must 409.
	resp := postJSON(t, ts.URL+"/campaigns/"+rec.ID+"/resume", "")
	decodeBody[errorBody](t, resp, http.StatusConflict)
	// Unknown campaigns 404.
	resp, err := http.Get(ts.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[errorBody](t, resp, http.StatusNotFound)
	// Bad payloads 400.
	resp = postJSON(t, ts.URL+"/campaigns", `{"options":{"target":"warp-core"}}`)
	decodeBody[errorBody](t, resp, http.StatusBadRequest)
	resp = postJSON(t, ts.URL+"/campaigns", `{"options":{"variant":"quantum"}}`)
	decodeBody[errorBody](t, resp, http.StatusBadRequest)
	resp = postJSON(t, ts.URL+"/campaigns", `{"options":{"target":"isasim","iterations":-5}}`)
	if body := decodeBody[errorBody](t, resp, http.StatusBadRequest); !strings.Contains(body.Error, "iterations") {
		t.Fatalf("negative iterations refusal does not name the key: %q", body.Error)
	}

	// Health and metrics answer.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[map[string]any](t, resp, http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	for _, metric := range []string{"dvz_workers_budget 1", "dvz_campaigns{state=\"done\"} 1", "dvz_iterations_total"} {
		if !strings.Contains(metrics.String(), metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, metrics.String())
		}
	}
}

// TestServerPersistFailureDegradesHealth: once a write of durable state
// fails, /metrics counts it and /healthz answers 503 "degraded" instead of
// "ok". A non-empty directory planted at findings.json makes every triage
// save fail, whatever the test's privileges.
func TestServerPersistFailureDegradesHealth(t *testing.T) {
	state := t.TempDir()
	srv, ts := openTestServer(t, state, 1)
	defer srv.Shutdown(context.Background()) //nolint:errcheck

	if err := os.MkdirAll(filepath.Join(state, "findings.json", "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := createCampaign(t, ts.URL, `{"options":{"target":"boom","seed":2,"iterations":48,"merge_every":8}}`)
	fin := pollRecord(t, ts.URL, rec.ID, "done", func(r Record) bool { return r.State == StateDone })
	rep := getReport(t, ts.URL, rec.ID)
	if len(rep.Findings) == 0 {
		t.Fatal("campaign produced no findings, so no triage save was attempted")
	}
	if fin.Findings != len(rep.Findings) {
		t.Fatalf("record counts %d findings, report has %d", fin.Findings, len(rep.Findings))
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[map[string]any](t, resp, http.StatusServiceUnavailable)
	if health["status"] != "degraded" {
		t.Fatalf("healthz status %v, want degraded", health["status"])
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	failed := 0
	for _, line := range strings.Split(metrics.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "dvz_persist_errors_total "); ok {
			failed, _ = strconv.Atoi(v)
		}
	}
	if failed == 0 {
		t.Fatalf("dvz_persist_errors_total is not above 0:\n%s", metrics.String())
	}
}

// TestRedrainIsByteIdentical: after an unclean restart a campaign resumes
// from its latest autosave, which may be older than what the stores
// absorbed, and re-delivers the barriers in between. A server that absorbs
// barriers [0,k) and then [j,n), j < k, must end with the same
// findings.json and compacted corpus.json as one that absorbed each
// barrier once.
func TestRedrainIsByteIdentical(t *testing.T) {
	opts := dejavuzz.Options{Target: "boom", Seed: 1, Iterations: 256, MergeEvery: 16}
	c, err := opts.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One barrier is its finding events followed by its epoch event.
	var barriers [][]dejavuzz.Event
	var cur []dejavuzz.Event
	findings := 0
	for ev := range sess.Events() {
		switch ev.Kind {
		case dejavuzz.EventFinding:
			cur = append(cur, ev)
			findings++
		case dejavuzz.EventEpoch:
			barriers = append(barriers, append(cur, ev))
			cur = nil
		}
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	n := len(barriers)
	// Resume from the first autosave after barrier 0 whose barrier carries
	// both findings and a harvest, so the re-drain exercises both stores.
	j := -1
	for i := 1; i < n && j < 0; i++ {
		if b := barriers[i]; len(b) > 1 && len(b[len(b)-1].Harvest) > 0 {
			j = i
		}
	}
	if j < 0 {
		t.Fatal("no barrier carries both findings and a harvest")
	}
	k := min(j+3, n)

	absorbAll := func(dir string, spans ...[2]int) Record {
		srv, err := Open(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		cs := &campaign{rec: Record{ID: "c1", Target: opts.EffectiveTarget(), Options: opts}}
		for _, sp := range spans {
			for _, b := range barriers[sp[0]:sp[1]] {
				for _, ev := range b {
					srv.absorb(cs, ev)
				}
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := srv.Snapshot().PersistErrors; n != 0 {
			t.Fatalf("%d persist errors", n)
		}
		return cs.rec
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	recA := absorbAll(dirA, [2]int{0, n})
	recB := absorbAll(dirB, [2]int{0, k}, [2]int{j, n})
	if recA.Findings != findings || recB.Findings != findings {
		t.Fatalf("records count %d and %d findings, the stream has %d", recA.Findings, recB.Findings, findings)
	}
	for _, name := range []string{"findings.json", filepath.Join("corpus", "corpus.json")} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs after re-draining barriers [%d,%d) of %d", name, j, k, n)
		}
	}
}
