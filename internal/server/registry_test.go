package server

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavuzz"
	"dejavuzz/internal/core"
)

// writeRegistry puts data as campaigns.json into a fresh state directory.
func writeRegistry(t testing.TB, data string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "campaigns.json"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// rec is a campaigns.json record of a boom campaign.
func rec(id, state string) string {
	return `{"id":"` + id + `","target":"boom","state":"` + state + `","options":{"target":"boom","seed":1,"iterations":8}}`
}

// registry is a campaigns.json listing recs.
func registry(recs ...string) string {
	return `{"version":1,"campaigns":[` + strings.Join(recs, ",") + `]}`
}

// TestOpenRefusesInvalidRegistry: a registry record the server could not
// have written is refused at Open, naming the record, instead of being
// listed twice or run under an ID Create never hands out.
func TestOpenRefusesInvalidRegistry(t *testing.T) {
	for _, c := range []struct {
		name, data string
		want       []string
	}{
		{"empty id", registry(rec("c1", "done"), rec("", "done")), []string{"campaign 1", `id ""`, "c<N>"}},
		{"repeated id", registry(rec("c1", "done"), rec("c2", "paused"), rec("c1", "cancelled")), []string{"campaign 2", `"c1"`, "twice"}},
		{"id not c<N>", registry(rec("../c1", "done")), []string{"campaign 0", `"../c1"`, "c<N>"}},
		{"id c0", registry(rec("c0", "done")), []string{"campaign 0", `"c0"`, "c<N>"}},
		{"unknown state", registry(rec("c1", "done"), rec("c2", "finished")), []string{"campaign 1", `"c2"`, `state "finished"`}},
		{"empty state", registry(rec("c1", "")), []string{"campaign 0", `"c1"`, `state ""`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := writeRegistry(t, c.data)
			srv, err := Open(Config{StateDir: dir})
			if err == nil {
				srv.Shutdown(context.Background()) //nolint:errcheck
				t.Fatalf("registry loaded: %s", c.data)
			}
			for _, w := range append(c.want, "campaigns.json") {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("refusal does not name %s: %v", w, err)
				}
			}
		})
	}
}

// TestNextIDFollowsHighestListed: the registry stores no next ID, so Open
// takes the highest c<N> listed and the next Create hands out the one after
// it, whether the file has no next_id or a stale one, and whatever the
// gaps below it (nothing is ever deleted, but loading must not assume
// that). Each record's target and total are recomputed from its options.
func TestNextIDFollowsHighestListed(t *testing.T) {
	for _, c := range []struct {
		name, data, next string
	}{
		{"no next_id", registry(rec("c1", "done"), rec("c3", "failed")), "c4"},
		{"stale next_id", `{"version":1,"next_id":1,"campaigns":[` + rec("c1", "done") + "," + rec("c3", "failed") + `]}`, "c4"},
		{"gaps", registry(rec("c2", "paused"), rec("c7", "done"), rec("c3", "cancelled"), rec("c5", "failed")), "c8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := Open(Config{StateDir: writeRegistry(t, c.data)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background()) //nolint:errcheck
			got, err := srv.Create("", dejavuzz.Options{Target: "isasim", Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != c.next {
				t.Errorf("Create returned %s, want %s", got.ID, c.next)
			}
			if n, want := len(srv.List()), strings.Count(c.data, `"id"`)+1; n != want {
				t.Errorf("lists %d records, want the %d loaded and the one created", n, want-1)
			}
		})
	}

	stale := `{"id":"c1","target":"xiangshan","total":999,"state":"done","options":{"target":"isasim","iterations":8}}`
	defaulted := `{"id":"c2","target":"isasim","total":3,"state":"cancelled","options":{}}`
	s, err := loadOnly(writeRegistry(t, registry(stale, defaulted)))
	if err != nil {
		t.Fatal(err)
	}
	recs := s.List()
	if r := recs[0]; r.Target != "isasim" || r.Total != 8 {
		t.Errorf("c1 loaded with target %q and total %d, want isasim and 8 from its options", r.Target, r.Total)
	}
	if r := recs[1]; r.Target != dejavuzz.DefaultTarget || r.Total != core.DefaultIterations {
		t.Errorf("c2 loaded with target %q and total %d, want the defaults %q and %d", r.Target, r.Total,
			dejavuzz.DefaultTarget, core.DefaultIterations)
	}
}

// loadOnly restores dir's registry into a server that is never scheduled:
// Open would launch every queued record.
func loadOnly(dir string) (*Server, error) {
	s := &Server{stateDir: dir, log: log.New(io.Discard, "", 0), campaigns: map[string]*campaign{}}
	return s, s.loadRegistry()
}

// FuzzLoadRegistry feeds arbitrary bytes as campaigns.json to
// loadRegistry: each input must load or be refused, never panic. A
// registry that loads must persist and reload with the same List().
func FuzzLoadRegistry(f *testing.F) {
	f.Add([]byte(`{"version":1,"next_id":3,"campaigns":[` +
		`{"id":"c1","name":"a","target":"boom","state":"running","stopping":"pause","created":"2026-01-02T03:04:05.5+02:00",` +
		`"options":{"target":"boom","seed":1,"iterations":48,"merge_every":8},"done":16,"total":48,"coverage":40,"findings":3},` +
		`{"id":"c3","target":"isasim","state":"failed","error":"boom","options":{"target":"isasim"}},` +
		`{"id":"c2","target":"boom","state":"queued","options":{}}]}`))
	f.Add([]byte(`{"version":1,"next_id":1,"campaigns":[{"id":"c1","state":"done"},{"id":"c1","state":"done"}]}`))
	f.Add([]byte(`{"version":1,"next_id":1,"campaigns":[{"id":"c2","state":"done"}]}`))
	f.Add([]byte(`{"version":1,"next_id":0,"campaigns":null}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version":1,"campaigns":[{"id":"c4","target":"xiangshan","state":"paused","options":{"target":"isasim"},"total":7}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaigns.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := loadOnly(dir)
		if err != nil {
			return
		}
		want, err := json.Marshal(s.List())
		if err != nil {
			t.Fatalf("loaded registry does not encode: %v", err)
		}
		if err := s.persistLocked(); err != nil {
			t.Fatalf("loaded registry does not persist: %v", err)
		}
		again, err := loadOnly(dir)
		if err != nil {
			t.Fatalf("persisted registry does not reload: %v", err)
		}
		got, err := json.Marshal(again.List())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("reloaded registry lists\n%s\nwant\n%s", got, want)
		}
	})
}
