package campaign

import (
	"encoding/json"
	"fmt"
	"os"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
)

// checkpointVersion guards against format drift. Version 3 marks the
// bandit-scheduler engine: results cached under any other version need not
// match what today's identical-looking specs produce, so they are refused
// rather than served from cache.
const checkpointVersion = 3

// checkpoint is the on-disk resume state: finished campaign reports keyed by
// spec name. Reports round-trip losslessly through JSON (seeds included), so
// a resumed matrix serves the exact bytes of the original run.
type checkpoint struct {
	Version int                     `json:"version"`
	Results map[string]*core.Report `json:"results"`
}

func emptyCheckpoint() *checkpoint {
	return &checkpoint{Version: checkpointVersion, Results: map[string]*core.Report{}}
}

// loadCheckpoint reads the checkpoint file; a missing file or empty path is
// an empty checkpoint, a malformed or version-mismatched file is an error
// (silently discarding finished campaigns would be worse than stopping).
func loadCheckpoint(path string) (*checkpoint, error) {
	if path == "" {
		return emptyCheckpoint(), nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return emptyCheckpoint(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	var c checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint %s: %w", path, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", path, c.Version, checkpointVersion)
	}
	// A missing results map means the file is some other JSON artifact —
	// most likely a single-session engine checkpoint, which shares the
	// version field. Refusing here keeps matrix mode from silently
	// overwriting a resumable session state (and vice versa).
	if c.Results == nil {
		return nil, fmt.Errorf("campaign: %s is not a campaign-matrix checkpoint (no results map)", path)
	}
	return &c, nil
}

// saveCheckpoint atomically rewrites the checkpoint (write temp + rename),
// so an interrupted run never truncates previously saved campaigns.
func saveCheckpoint(path string, c *checkpoint) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	if err := atomicfile.Write(path, data); err != nil {
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	return nil
}
