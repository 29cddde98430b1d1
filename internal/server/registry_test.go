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

// TestOpenRefusesInvalidRegistry: a registry record the server could not
// have written is refused at Open, naming the record, instead of being
// listed twice or handed out again by a later Create.
func TestOpenRefusesInvalidRegistry(t *testing.T) {
	rec := func(id, state string) string {
		return `{"id":"` + id + `","target":"boom","state":"` + state + `","options":{"target":"boom","seed":1,"iterations":8}}`
	}
	reg := func(nextID string, recs ...string) string {
		return `{"version":1,"next_id":` + nextID + `,"campaigns":[` + strings.Join(recs, ",") + `]}`
	}
	for _, c := range []struct {
		name, data string
		want       []string
	}{
		{"empty id", reg("2", rec("c1", "done"), rec("", "done")), []string{"campaign 1", `id ""`, "c<N>"}},
		{"repeated id", reg("2", rec("c1", "done"), rec("c2", "paused"), rec("c1", "cancelled")), []string{"campaign 2", `"c1"`, "twice"}},
		{"id above next_id", reg("1", rec("c1", "done"), rec("c3", "failed")), []string{"campaign 1", `"c3"`, "next_id 1"}},
		{"id not c<N>", reg("2", rec("../c1", "done")), []string{"campaign 0", `"../c1"`, "c<N>"}},
		{"id c0", reg("2", rec("c0", "done")), []string{"campaign 0", `"c0"`, "c<N>"}},
		{"unknown state", reg("2", rec("c1", "done"), rec("c2", "finished")), []string{"campaign 1", `"c2"`, `state "finished"`}},
		{"empty state", reg("1", rec("c1", "")), []string{"campaign 0", `"c1"`, `state ""`}},
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

	// The records the server writes load: every parked or terminal state,
	// with gaps below next_id (nothing is ever deleted, but the check must
	// not assume that).
	dir := writeRegistry(t, reg("7", rec("c2", "paused"), rec("c7", "done"), rec("c3", "cancelled"), rec("c5", "failed")))
	srv, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	if got := len(srv.List()); got != 4 {
		t.Fatalf("loaded %d records, want 4", got)
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
