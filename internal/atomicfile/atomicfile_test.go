package atomicfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// TestWriteReplaces checks the basic contract: Write creates the file,
// rewrites it in place, and leaves no temp files behind.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for i, payload := range []string{"first", "second, longer than the first", "3rd"} {
		if err := Write(path, []byte(payload)); err != nil {
			t.Fatalf("Write #%d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if string(got) != payload {
			t.Fatalf("Write #%d: got %q, want %q", i, got, payload)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.json" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
}

// TestWriteAtomicVisibility hammers one destination with a writer loop while
// a reader loop re-reads it: every read must observe some writer's complete
// payload — never a truncated or interleaved one. This is the whole point of
// the write-temp-then-rename protocol.
func TestWriteAtomicVisibility(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	payload := func(i int) []byte {
		// Self-describing payloads: a header naming the full length, then
		// filler. A torn read fails the internal consistency check.
		body := strings.Repeat(fmt.Sprintf("v%04d ", i), 64)
		return []byte(fmt.Sprintf("%04d|%s", len(body), body))
	}
	if err := Write(path, payload(0)); err != nil {
		t.Fatal(err)
	}

	const writes = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			if err := Write(path, payload(i)); err != nil {
				t.Errorf("Write %d: %v", i, err)
				return
			}
		}
	}()
	for {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read during writes: %v", err)
		}
		head, body, ok := bytes.Cut(data, []byte("|"))
		if !ok || fmt.Sprintf("%04d", len(body)) != string(head) {
			t.Fatalf("torn read: %d bytes, header %q", len(data), head)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestConcurrentWriters races many writers at one destination: the final
// file must be exactly one writer's payload, and no temp files may leak.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.json")
	const writers = 8
	const rounds = 40
	valid := make(map[string]bool)
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		payload := strings.Repeat(fmt.Sprintf("writer-%d ", wtr), 32)
		valid[payload] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := Write(path, []byte(payload)); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !valid[string(got)] {
		t.Fatalf("final content is no writer's payload: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files leaked: %v", entries)
	}
}

// TestPartialWriteCrash simulates a writer that died mid-write — a partial
// temp file left in the directory, exactly what a crash between CreateTemp
// and Rename leaves behind. The destination must be unaffected, later
// Writes must succeed, and readers must never be routed to the debris.
func TestPartialWriteCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := Write(path, []byte("good checkpoint")); err != nil {
		t.Fatal(err)
	}
	// The crashed writer's debris, named exactly as Write's temp pattern
	// produces, holding a torn half-payload.
	debris := filepath.Join(dir, ".ckpt.json.tmp-12345")
	if err := os.WriteFile(debris, []byte("half a check"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good checkpoint" {
		t.Fatalf("destination disturbed by crash debris: %q", got)
	}
	if err := Write(path, []byte("newer checkpoint")); err != nil {
		t.Fatalf("Write after crash debris: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "newer checkpoint" {
		t.Fatalf("post-crash Write: got %q", got)
	}
	if _, err := os.Stat(debris); err != nil {
		t.Fatalf("crash debris should be inert, not consumed: %v", err)
	}
}

// TestWriteErrorLeavesDestination checks the error path: a Write that
// cannot even create its temp file (missing directory) reports the error
// and creates nothing.
func TestWriteErrorLeavesDestination(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if err := Write(path, []byte("x")); err == nil {
		t.Fatal("Write into missing directory: want error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination should not exist: %v", err)
	}
}

// TestWritePiecesFailure fails the third of four pieces, on a full disk
// (nothing written) or torn (half of it written): Write reports the error,
// the destination keeps its previous bytes and no temp file is left. With
// the writer restored, the pieces are written in order.
func TestWritePiecesFailure(t *testing.T) {
	pieces := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	for _, tc := range []struct {
		name string
		fail func(f *os.File, p []byte) (int, error)
		want error
	}{
		{"disk full", func(*os.File, []byte) (int, error) { return 0, syscall.ENOSPC }, syscall.ENOSPC},
		{"torn", func(f *os.File, p []byte) (int, error) {
			n, _ := f.Write(p[:len(p)/2])
			return n, syscall.EIO
		}, syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ckpt.json")
			if err := Write(path, []byte("previous")); err != nil {
				t.Fatal(err)
			}
			calls := 0
			write = func(f *os.File, p []byte) (int, error) {
				if calls++; calls == 3 {
					return tc.fail(f, p)
				}
				return f.Write(p)
			}
			err := Write(path, pieces...)
			write = (*os.File).Write
			if !errors.Is(err, tc.want) {
				t.Fatalf("Write: %v, want %v", err, tc.want)
			}
			if calls != 3 {
				t.Errorf("Write went on to %d pieces after the failure", calls-3)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
				t.Fatalf("destination holds %q (err %v) after the failed write, want its previous bytes", got, err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("failed write left %v", entries)
			}
			if err := Write(path, pieces...); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != "abbcccdddd" {
				t.Fatalf("pieces written as %q", got)
			}
		})
	}
}

func TestProbeDir(t *testing.T) {
	dir := t.TempDir()
	if err := ProbeDir(filepath.Join(dir, "future-file.json")); err != nil {
		t.Fatalf("ProbeDir on writable dir: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("ProbeDir left debris: %v", entries)
	}
	if err := ProbeDir(filepath.Join(dir, "missing", "f.json")); err == nil {
		t.Fatal("ProbeDir on missing dir: want error")
	}
}
