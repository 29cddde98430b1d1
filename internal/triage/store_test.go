package triage

import (
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

// v2StoreWithoutCorpusEntry writes a current-version store through Add and
// returns its bytes with the one bug's corpus_entry removed.
func v2StoreWithoutCorpusEntry(t *testing.T, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "source.json")
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
	delete(bug, "corpus_entry")
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenRejectsUnknownVersion pins the store's one accepted format:
// every version but StoreVersion is refused naming the version, and a
// current-version bug without corpus provenance is refused naming the
// field.
func TestOpenRejectsUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"version-99", []byte(`{"version":99,"bugs":[]}`), "version 99"},
		{"version-1", v1StoreJSON(t), "version 1"},
		{"empty-corpus-entry", v2StoreWithoutCorpusEntry(t, dir), "corpus_entry"},
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
