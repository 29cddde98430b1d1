package core

import (
	"encoding/json"
	"fmt"

	"dejavuzz/internal/gen"
)

// EncodeSeed serialises a stimulus seed for bug reports: every finding can
// be replayed deterministically from its seed.
func EncodeSeed(s gen.Seed) string {
	b, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	return string(b)
}

// DecodeSeed parses a serialised seed.
func DecodeSeed(data string) (gen.Seed, error) {
	var s gen.Seed
	if err := json.Unmarshal([]byte(data), &s); err != nil {
		return s, fmt.Errorf("core: bad seed: %w", err)
	}
	return s, nil
}

// ReproResult is a deterministic replay of one seed through all phases:
// the iteration's outcome plus Phase 1's training overhead.
type ReproResult struct {
	Outcome
	Seed    gen.Seed
	TO, ETO int
}

// Reproduce replays a seed through the full three-phase pipeline — the
// workflow a developer follows from a bug report. It runs the campaign's
// phase chain on the fuzzer's sequential pipeline, with the fuzzer's
// coverage as the sink.
func (f *Fuzzer) Reproduce(seed gen.Seed) (*ReproResult, error) {
	out, to, eto, err := f.seqShard().chain(seed, f.coverage)
	if err != nil {
		return nil, err
	}
	return &ReproResult{Outcome: out, Seed: seed, TO: to, ETO: eto}, nil
}
