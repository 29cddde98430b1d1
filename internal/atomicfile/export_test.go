package atomicfile

import "os"

// SetWrite replaces the piece writer, for tests outside the package that
// inject write faults, and returns a func that restores it.
func SetWrite(w func(f *os.File, p []byte) (int, error)) (restore func()) {
	write = w
	return func() { write = (*os.File).Write }
}
