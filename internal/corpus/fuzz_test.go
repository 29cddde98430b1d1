package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCorpusOpen feeds arbitrary bytes to Open as corpus.json and
// journal.ndjson (an empty input leaves that file out). Each input must
// load or be refused, never panic or hang. A store that loads must accept
// a harvest, and after Close it must reopen with the same entries.
func FuzzCorpusOpen(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Harvest("c1", "boom", "fp-test", testBatch(3, 0)); err != nil {
		f.Fatal(err)
	}
	if err := st.compactLocked(); err != nil { // a snapshot with entries
		f.Fatal(err)
	}
	if _, err := st.Harvest("c2", "xiangshan", "fp-test", testBatch(2, 5)); err != nil {
		f.Fatal(err)
	}
	snapshot, err := os.ReadFile(st.snapshotPath())
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(st.journalPath())
	if err != nil {
		f.Fatal(err)
	}
	st.journal.Close()
	f.Add(snapshot, journal)
	f.Add(snapshot, []byte{})
	f.Add([]byte{}, journal)
	f.Add(snapshot, append(journal, `{"campaign":"c3","target":"boom","fingerprint":"fp-test","batch":[{"iter`...)) // torn tail
	seed, err := json.Marshal(testSeed(7, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"version":3,"entries":[{"id":"00","target":"boom","seed":`+string(seed)+`,"best":{"campaign":"c1","iteration":-1}}]}`), []byte{})
	f.Add([]byte(`{"version":2,"watermarks":{"c1":1},"entries":[]}`), []byte{})
	f.Add([]byte{}, []byte(`{"campaign":"","target":"boom","fingerprint":"fp-test","batch":[{"iteration":1}]}`+"\n"))

	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		dir := t.TempDir()
		for _, file := range []struct {
			name string
			data []byte
		}{{snapshotFile, snapshot}, {journalFile, journal}} {
			if len(file.data) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, file.name), file.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			return
		}
		if _, err := st.Harvest("fuzz", "boom", "fp-fuzz", testBatch(2, 1<<40)); err != nil {
			t.Fatalf("accepted store refused a harvest: %v", err)
		}
		want := st.List("", "")
		if err := st.Close(); err != nil {
			t.Fatalf("accepted store failed to close: %v", err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("closed store does not reopen: %v", err)
		}
		defer again.Close()
		if got := again.List("", ""); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened store has %d entries, closed with %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
	})
}
