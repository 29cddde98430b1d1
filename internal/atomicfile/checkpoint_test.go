package atomicfile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"

	"dejavuzz"
	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
)

// referenceState is core.EngineState without its methods: json.Marshal of
// it is the reflection encoding, the reference every checkpoint file must
// equal byte for byte.
type referenceState core.EngineState

// saveLog records the bytes of each checkpoint save, one temp file each,
// and fails the saves named in fail: fail[k] writes piece i of save k.
type saveLog struct {
	saves [][]byte
	tmp   string
	piece int
	fail  map[int]func(f *os.File, p []byte, piece int) (int, error)
}

func (l *saveLog) write(f *os.File, p []byte) (int, error) {
	if f.Name() != l.tmp {
		l.tmp, l.piece = f.Name(), 0
		l.saves = append(l.saves, nil)
	}
	k := len(l.saves) - 1
	l.piece++
	if fail := l.fail[k]; fail != nil {
		return fail(f, p, l.piece-1)
	}
	l.saves[k] = append(l.saves[k], p...)
	return f.Write(p)
}

// autosave runs a boom campaign (seed 42, 48 iterations, a barrier and an
// autosave every 8) through a session whose checkpoint writes go through
// l, and returns its report and its CheckpointSaved events' errors.
func autosave(t *testing.T, path string, l *saveLog) (*dejavuzz.Report, []error) {
	t.Helper()
	defer atomicfile.SetWrite(l.write)()
	c, err := dejavuzz.Options{Target: "boom", Seed: 42, Iterations: 48, MergeEvery: 8}.Campaign(
		dejavuzz.WithCheckpointFile(path))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	for ev := range s.Events() {
		if ev.Kind == dejavuzz.EventCheckpointSaved {
			errs = append(errs, ev.Err)
		}
	}
	rep, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return rep, errs
}

var elapsed = regexp.MustCompile(`"elapsed_ns":\d+`)

// withoutElapsed blanks a checkpoint's wall time, the one field two runs
// may save differently.
func withoutElapsed(data []byte) []byte {
	return elapsed.ReplaceAll(data, []byte(`"elapsed_ns":0`))
}

func reportJSON(t *testing.T, rep *dejavuzz.Report) []byte {
	t.Helper()
	r := *rep
	r.Duration = 0
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointAutosaveFaults fails two of a session's six autosaves, one
// on a full disk before any byte is written and one torn halfway through
// its first piece of records. Each failure reaches the session's CheckpointSaved event. The
// saves after them are byte-identical to an unfaulted run's and to the
// reference encoding, since a failed write leaves the record memo as it
// was, and resuming from the save after a failure finishes with the
// uninterrupted report. No temp file is left behind.
func TestCheckpointAutosaveFaults(t *testing.T) {
	ref := &saveLog{}
	want, _ := autosave(t, filepath.Join(t.TempDir(), "ref.ckpt"), ref)

	dir := t.TempDir()
	path := filepath.Join(dir, "auto.ckpt")
	faulty := &saveLog{fail: map[int]func(*os.File, []byte, int) (int, error){
		1: func(*os.File, []byte, int) (int, error) { return 0, syscall.ENOSPC },
		3: func(f *os.File, p []byte, piece int) (int, error) {
			if piece == 0 || len(p) < 64 {
				return f.Write(p)
			}
			n, _ := f.Write(p[:len(p)/2])
			return n, syscall.EIO
		},
	}}
	got, errs := autosave(t, path, faulty)
	if len(ref.saves) != 6 || len(faulty.saves) != 6 || len(errs) != 6 {
		t.Fatalf("%d and %d saves with %d CheckpointSaved events, want 6 each", len(ref.saves), len(faulty.saves), len(errs))
	}
	for k, err := range errs {
		switch k {
		case 1:
			if !errors.Is(err, syscall.ENOSPC) {
				t.Errorf("save %d: event error %v, want ENOSPC", k, err)
			}
		case 3:
			if !errors.Is(err, syscall.EIO) {
				t.Errorf("save %d: event error %v, want EIO", k, err)
			}
		default:
			if err != nil {
				t.Errorf("save %d: %v", k, err)
			} else if !bytes.Equal(withoutElapsed(faulty.saves[k]), withoutElapsed(ref.saves[k])) {
				t.Errorf("save %d: %d bytes differ from the unfaulted run's %d", k, len(faulty.saves[k]), len(ref.saves[k]))
			}
		}
	}
	if !bytes.Equal(reportJSON(t, got), reportJSON(t, want)) {
		t.Error("faulted session's report differs from the unfaulted one's")
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, faulty.saves[5]) {
		t.Errorf("checkpoint file is not the last save (err %v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("failed saves left %v", entries)
	}

	for _, k := range []int{2, 4} {
		var st core.EngineState
		if err := json.Unmarshal(faulty.saves[k], &st); err != nil {
			t.Fatalf("save %d: %v", k, err)
		}
		if enc, err := json.Marshal((*referenceState)(&st)); err != nil || !bytes.Equal(enc, faulty.saves[k]) {
			t.Errorf("save %d after a failure differs from the reference encoding (err %v)", k, err)
		}
	}
	resumeFrom := filepath.Join(dir, "resume.ckpt")
	if err := os.WriteFile(resumeFrom, faulty.saves[2], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := dejavuzz.LoadCheckpoint(resumeFrom)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dejavuzz.Options{Target: "boom", Seed: 42, Iterations: 48, MergeEvery: 8}.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Resume(context.Background(), ck)
	if err != nil {
		t.Fatal(err)
	}
	for range s.Events() {
	}
	resumed, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, resumed), reportJSON(t, want)) {
		t.Error("campaign resumed from the save after a failure differs from the uninterrupted run")
	}
}
