package triage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

// v1StoreJSON builds a pre-scenario (version 1) findings.json: signatures
// lack the scenario segment and bugs carry no scenario field or corpus
// provenance.
func v1StoreJSON(t *testing.T) []byte {
	t.Helper()
	example := map[string]any{
		"Kind":       int(core.FindingEncoded),
		"AttackType": "Spectre",
		"Window":     int(gen.TrigBranchMispred),
		"Components": []string{"dcache"},
		"Seed":       map[string]any{"Rand": 111},
		"Iteration":  5,
	}
	v1 := map[string]any{
		"version":      1,
		"raw_findings": 2,
		"bugs": []map[string]any{{
			"signature":   "boom|encoded-leak|Spectre|branch-misprediction|dcache|",
			"target":      "boom",
			"kind":        "encoded-leak",
			"attack_type": "Spectre",
			"window":      gen.TrigBranchMispred.String(),
			"components":  []string{"dcache"},
			"count":       2,
			"campaigns":   []string{"c1"},
			"seeds":       []int64{1},
			"example":     example,
			"occurrences": []string{"c1#5", "c1#9"},
		}},
	}
	data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// editedStore writes a current-version store through Add and returns its
// bytes after edit has changed the decoded JSON.
func editedStore(t *testing.T, dir string, edit func(store, bug map[string]any)) []byte {
	t.Helper()
	path := filepath.Join(dir, "source.json")
	os.Remove(path)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f := finding(5, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, nil, 111)
	if _, _, err := s.Add("c1", "boom", 1, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	bug := m["bugs"].([]any)[0].(map[string]any)
	if bug["corpus_entry"] == nil {
		t.Fatal("Add wrote a bug without corpus_entry")
	}
	edit(m, bug)
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenRejectsUnknownVersion pins the store's one accepted format:
// every version but StoreVersion is refused naming the version — version 2
// being the last one with per-bug occurrence keys — and a current-version
// store with a negative watermark, a bug with a count below 1 or a bug
// without corpus provenance is refused naming the field.
func TestOpenRejectsUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"version-99", []byte(`{"version":99,"bugs":[]}`), "version 99"},
		{"version-1", v1StoreJSON(t), "version 1"},
		{"version-2", editedStore(t, dir, func(store, bug map[string]any) {
			store["version"] = 2
			delete(store, "watermarks")
			bug["occurrences"] = []string{"c1#5"}
		}), "version 2"},
		{"negative-watermark", editedStore(t, dir, func(store, bug map[string]any) {
			store["watermarks"] = map[string]int{"c1": 5, "c2": -1}
		}), "watermarks"},
		{"count-below-1", editedStore(t, dir, func(store, bug map[string]any) {
			bug["count"] = 0
		}), "count"},
		{"empty-corpus-entry", editedStore(t, dir, func(store, bug map[string]any) {
			delete(bug, "corpus_entry")
		}), "corpus_entry"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s: store loaded", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refusal does not name %q: %v", tc.name, tc.want, err)
		}
	}
}

// TestOpenRefusesInvalidExampleSeed: a bug whose example seed no generator
// could have drawn (here a negative WindowLen) is refused at Open, naming
// the file, the bug and the field, before a replay of it reaches the
// stimulus builder.
func TestOpenRefusesInvalidExampleSeed(t *testing.T) {
	dir := t.TempDir()
	var sig string
	data := editedStore(t, dir, func(store, bug map[string]any) {
		bug["example"].(map[string]any)["Seed"].(map[string]any)["WindowLen"] = -4
		sig = bug["signature"].(string)
	})
	path := filepath.Join(dir, "findings.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil {
		t.Fatal("store with a negative example WindowLen loaded")
	}
	for _, want := range []string{path, sig, "WindowLen"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal does not name %q: %v", want, err)
		}
	}
}

// TestStoreSizeBoundedByCampaigns: one campaign rediscovering one bug at
// 100 and then at 1000 increasing iterations leaves files that differ only
// in counter digits — the store grows with campaigns, not occurrences.
func TestStoreSizeBoundedByCampaigns(t *testing.T) {
	size := func(n int) int64 {
		path := filepath.Join(t.TempDir(), "findings.json")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			f := finding(3*i, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, nil, int64(i))
			if _, _, err := s.Add("c1", "boom", 1, f); err != nil {
				t.Fatal(err)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small, large := size(100), size(1000)
	if large-small >= 512 {
		t.Fatalf("findings.json grew from %d to %d bytes between 100 and 1000 findings, want < 512", small, large)
	}
}

// TestStoreOrderFree: one bug's findings from three campaigns, added in
// every campaign order, give byte-identical findings.json files, whose
// example is the finding with the least (campaign, iteration) under the
// corpus's campaign order, not the first to arrive.
func TestStoreOrderFree(t *testing.T) {
	bug := func(iter int, seedRand int64) core.Finding {
		return finding(iter, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, nil, seedRand)
	}
	campaigns := []struct {
		id       string
		findings []core.Finding
	}{
		{"c10", []core.Finding{bug(1, 101), bug(4, 102)}},
		{"c2", []core.Finding{bug(9, 21), bug(12, 22)}},
		{"c9", []core.Finding{bug(2, 91)}},
	}
	var want []byte
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		path := filepath.Join(t.TempDir(), "findings.json")
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			c := campaigns[i]
			if _, _, err := s.Add(c.id, "boom", int64(i), c.findings...); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			b := s.Bugs()
			if len(b) != 1 || b[0].ExampleCampaign != "c2" || b[0].Example.Iteration != 9 || b[0].Count != 5 {
				t.Fatalf("bugs %+v, want one bug of count 5 whose example is c2's iteration 9", b)
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("campaign order %v wrote a different findings.json:\n got %s\nwant %s", order, got, want)
		}
	}
}
