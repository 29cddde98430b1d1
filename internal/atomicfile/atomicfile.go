// Package atomicfile provides crash-safe whole-file replacement: write to a
// temp file in the target directory, then rename over the destination, so
// readers never observe a truncated or partially written file.
package atomicfile

import (
	"os"
	"path/filepath"
)

// write writes one piece to the temp file (os.File.Write; tests inject
// disk-full and torn writes through it).
var write = (*os.File).Write

// Write atomically replaces path with the concatenation of pieces (write
// temp + rename), so a caller holding its content in parts need not join
// them first. On error the destination is untouched and the temp file is
// cleaned up.
func Write(path string, pieces ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	for _, p := range pieces {
		if _, err := write(tmp, p); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ProbeDir verifies that path's directory exists and is writable by
// creating and removing a temp file — an eager configuration check for
// files that will be written later.
func ProbeDir(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".probe-*")
	if err != nil {
		return err
	}
	tmp.Close()
	return os.Remove(tmp.Name())
}
